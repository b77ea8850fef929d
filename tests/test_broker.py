import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideation_stream.broker import READ_WINDOW, Broker, TopicConfig
from ideation_stream.cli import main
from ideation_stream.errors import (CorruptPayload, OffsetOutOfRange, TopicExists,
                                    UnknownTopic)
from ideation_stream.hashutil import fnv1a_32

from oracles import collect_reference, fnv1a_32_reference


@pytest.fixture
def broker(tmp_path):
    with Broker(tmp_path / "log") as b:
        yield b


class TestTopics:
    def test_fresh_topic_empty(self, broker):
        broker.create_topic("Source-tweets")
        assert broker.end_offsets("Source-tweets") == [0]

    def test_duplicate_rejected(self, broker):
        broker.create_topic("t")
        with pytest.raises(TopicExists):
            broker.create_topic("t")

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            TopicConfig(name="t", partitions=0)

    @pytest.mark.parametrize("name", ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b"])
    def test_names_stay_under_the_root(self, tmp_path, name):
        root = tmp_path / "outer" / "log"
        with Broker(root) as b:
            with pytest.raises(ValueError):
                b.create_topic(name)
            b.create_topic("t")
            with pytest.raises(ValueError):
                b.commit(name, "t", {0: 0})
            assert b.committed(name, "t") == {}
        assert [p.name for p in (tmp_path / "outer").iterdir()] == ["log"]
        assert [p.name for p in (root / "topics").iterdir()] == ["t"]
        assert list((root / "groups").iterdir()) == []
        with Broker(root) as b:
            assert b.topics() == ["t"]

    def test_unknown_topic(self, broker):
        with pytest.raises(UnknownTopic):
            broker.produce("ghost", b"x")
        with pytest.raises(UnknownTopic):
            broker.consume("ghost", "g")


class TestProduce:
    def test_first_offset_zero(self, broker):
        broker.create_topic("t")
        assert broker.produce("t", b"a") == (0, 0)

    def test_same_key_same_partition_ordered(self, broker):
        broker.create_topic("t", partitions=4)
        results = [broker.produce("t", str(i).encode(), key=b"stable")
                   for i in range(100)]
        partitions = {p for p, _ in results}
        assert len(partitions) == 1
        assert [o for _, o in results] == list(range(100))

    def test_key_hash_matches_documented_hash(self, broker):
        broker.create_topic("t", partitions=2)
        for key in (b"alpha", b"beta", b"gamma"):
            p, _ = broker.produce("t", b"v", key=key)
            assert p == fnv1a_32_reference(key) % 2
            assert p == fnv1a_32(key) % 2

    def test_round_robin_without_key(self, broker):
        broker.create_topic("t", partitions=3)
        partitions = [broker.produce("t", b"v")[0] for _ in range(6)]
        assert partitions == [0, 1, 2, 0, 1, 2]


class TestConsume:
    def test_fresh_group_reads_from_zero(self, broker):
        broker.create_topic("t")
        for i in range(5):
            broker.produce("t", f"m{i}".encode())
        records = broker.consume("t", "g", max_records=100)
        assert [r.offset for r in records] == [0, 1, 2, 3, 4]
        assert [r.value for r in records] == [b"m0", b"m1", b"m2", b"m3", b"m4"]

    def test_redelivery_without_commit(self, broker):
        broker.create_topic("t")
        broker.produce("t", b"x")
        first = broker.consume("t", "g")
        second = broker.consume("t", "g")
        assert [r.offset for r in first] == [r.offset for r in second] == [0]

    def test_committed_offset_skips(self, broker):
        broker.create_topic("t")
        for i in range(5):
            broker.produce("t", str(i).encode())
        broker.commit("g", "t", {0: 3})
        records = broker.consume("t", "g")
        assert [r.offset for r in records] == [3, 4]

    def test_empty_batch_on_timeout(self, broker):
        broker.create_topic("t")
        t0 = time.monotonic()
        assert broker.consume("t", "g", timeout_ms=60) == []
        assert time.monotonic() - t0 >= 0.05

    def test_timeout_wakes_on_produce(self, broker):
        broker.create_topic("t")

        def later():
            time.sleep(0.05)
            broker.produce("t", b"ping")

        threading.Thread(target=later).start()
        records = broker.consume("t", "g", timeout_ms=2000)
        assert [r.value for r in records] == [b"ping"]

    def test_round_robin_order_across_partitions(self, broker):
        # one record per partition per round, in partition order, each
        # partition from its committed offset; max_records may end a round
        broker.create_topic("t", partitions=3)
        keys = {}
        for i in range(100):
            keys.setdefault(fnv1a_32(f"k{i}".encode()) % 3, f"k{i}".encode())
        for p, backlog in ((0, 5), (1, 2), (2, 7)):
            for i in range(backlog):
                assert broker.produce("t", f"{p}:{i}".encode(), key=keys[p]) == (p, i)
        broker.commit("g", "t", {0: 1, 2: 3})
        records = broker.consume("t", "g", max_records=9)
        expected = [(0, 1), (1, 0), (2, 3),
                    (0, 2), (1, 1), (2, 4),
                    (0, 3), (2, 5),
                    (0, 4)]
        assert [(r.partition, r.offset) for r in records] == expected
        assert [r.value for r in records] == [f"{p}:{o}".encode() for p, o in expected]

    def test_two_groups_independent(self, broker):
        broker.create_topic("t")
        for i in range(4):
            broker.produce("t", str(i).encode())
        a = broker.consume("t", "group-a")
        broker.commit("group-a", "t", {0: 4})
        b = broker.consume("t", "group-b")
        assert len(a) == len(b) == 4


class TestOffsets:
    def test_commit_beyond_end(self, broker):
        broker.create_topic("t")
        broker.produce("t", b"x")
        with pytest.raises(OffsetOutOfRange):
            broker.commit("g", "t", {0: 2})
        with pytest.raises(OffsetOutOfRange):
            broker.commit("g", "t", {5: 0})

    def test_replay_from_zero_reprocesses(self, broker):
        broker.create_topic("t")
        for i in range(3):
            broker.produce("t", str(i).encode())
        broker.commit("g", "t", {0: 3})
        assert broker.consume("t", "g") == []
        broker.commit("g", "t", {0: 0})
        assert len(broker.consume("t", "g")) == 3

    def test_commit_survives_restart(self, tmp_path):
        root = tmp_path / "log"
        with Broker(root) as b:
            b.create_topic("t")
            for i in range(5):
                b.produce("t", str(i).encode())
            b.commit("g", "t", {0: 2})
        with Broker(root) as b:
            records = b.consume("t", "g")
            assert [r.offset for r in records] == [2, 3, 4]
            assert b.end_offsets("t") == [5]


class TestTopicMetadata:
    def _topic_json(self, tmp_path, raw: bytes):
        meta = tmp_path / "log" / "topics" / "t" / "topic.json"
        meta.parent.mkdir(parents=True)
        meta.write_bytes(raw)

    def test_file_with_old_cap_key_opens_and_serves(self, tmp_path):
        # older releases wrote a record cap into topic.json; it is now ignored
        self._topic_json(tmp_path, b'{"name": "t", "partitions": 2, "retention": 0}')
        with Broker(tmp_path / "log") as b:
            assert b.topics() == ["t"] and b.end_offsets("t") == [0, 0]
            for i in range(4):
                b.produce("t", f"r{i}".encode())
            records = b.consume("t", "g", max_records=10)
            assert sorted(r.value for r in records) == [b"r0", b"r1", b"r2", b"r3"]
            b.commit("g", "t", {0: 2, 1: 2})
        with Broker(tmp_path / "log") as b:
            assert b.end_offsets("t") == [2, 2] and b.consume("t", "g") == []

    @pytest.mark.parametrize("raw", [b"{not json", b"[1, 2]", b'"t"', b'{"name": "t"}',
                                     b'{"partitions": 1}', b'{"name": "t", "partitions": 0}',
                                     b'{"name": "t", "partitions": "2"}', b"\xff\xfe",
                                     b'{"name": "../x", "partitions": 1}'])
    def test_unreadable_metadata_is_corrupt_payload(self, tmp_path, raw):
        self._topic_json(tmp_path, raw)
        with pytest.raises(CorruptPayload):
            Broker(tmp_path / "log")

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts /proc/self/fd")
    def test_metadata_naming_another_directorys_topic_is_corrupt_payload(self, tmp_path):
        # opened, it would stand in for the real "a" and leave a's segment open
        root = tmp_path / "log"
        with Broker(root) as b:
            for name in ("a", "b"):
                b.create_topic(name)
                b.produce(name, name.encode())
        (root / "topics" / "b" / "topic.json").write_text('{"name": "a", "partitions": 1}', "utf-8")
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(CorruptPayload, match=r"b/topic\.json.* 'a'"):
            Broker(root)
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_unreadable_group_file_is_corrupt_payload(self, tmp_path):
        (tmp_path / "log" / "groups").mkdir(parents=True)
        (tmp_path / "log" / "groups" / "g.json").write_text("[]", "utf-8")
        with pytest.raises(CorruptPayload):
            Broker(tmp_path / "log")


class TestDurability:
    def test_segment_rotation_preserves_order(self, tmp_path):
        root = tmp_path / "log"
        with Broker(root, segment_bytes=256) as b:
            b.create_topic("t")
            for i in range(100):
                b.produce("t", f"payload-{i:04d}".encode())
            records = b.consume("t", "g", max_records=1000)
            assert [r.value.decode() for r in records] == [f"payload-{i:04d}" for i in range(100)]
        segs = list((root / "topics" / "t" / "0").glob("*.log"))
        assert len(segs) > 1
        with Broker(root) as b:
            assert b.end_offsets("t") == [100]

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        root = tmp_path / "log"
        with Broker(root) as b:
            b.create_topic("t")
            for i in range(10):
                b.produce("t", str(i).encode())
        seg = next((root / "topics" / "t" / "0").glob("*.log"))
        with open(seg, "ab") as fh:
            fh.write(b"\x99\x01\x00\x00garbage-torn-frame")
        with Broker(root) as b:
            records = b.consume("t", "g", max_records=100)
            assert [r.value for r in records] == [str(i).encode() for i in range(10)]
            assert b.end_offsets("t") == [10]

    def test_corrupt_sealed_segment_raises_and_keeps_the_file(self, tmp_path):
        # a bad frame in a segment before the last is not a torn tail:
        # truncating there would delete acked records behind it
        root = tmp_path / "log"
        with Broker(root, segment_bytes=256) as b:
            b.create_topic("t")
            for i in range(40):
                b.produce("t", f"payload-{i:04d}".encode())
        segs = sorted((root / "topics" / "t" / "0").glob("*.log"))
        assert len(segs) == 6 and segs[0].stat().st_size == 252  # 7 frames of 36 bytes
        damaged = bytearray(segs[0].read_bytes())
        damaged[120] ^= 0xFF  # inside the fourth frame, which starts at byte 108
        segs[0].write_bytes(bytes(damaged))
        with pytest.raises(CorruptPayload, match=r"00000000000000000000\.log.* byte 108 "):
            Broker(root, segment_bytes=256)
        assert segs[0].read_bytes() == bytes(damaged)

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts /proc/self/fd")
    @pytest.mark.parametrize("damage", ["topic.json", "sealed segment"])
    def test_failed_open_closes_what_it_opened(self, tmp_path, damage):
        # topic "a" opens whole before topic "b" fails: 3 partitions of 2
        # segments each, plus what "b" opened before its bad file
        root = tmp_path / "log"
        with Broker(root, segment_bytes=256) as b:
            for name in ("a", "b"):
                b.create_topic(name, partitions=3)
                for i in range(30):
                    b.produce(name, f"payload-{i:04d}".encode())
        if damage == "topic.json":
            bad = root / "topics" / "b" / "topic.json"
            bad.write_text("{trunc", "utf-8")
        else:
            bad = sorted((root / "topics" / "b" / "2").glob("*.log"))[0]
            damaged = bytearray(bad.read_bytes())
            damaged[20] ^= 0xFF
            bad.write_bytes(bytes(damaged))
        before = bad.read_bytes()
        open_fds = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with pytest.raises(CorruptPayload):
                Broker(root, segment_bytes=256)
            assert main(["broker", "offsets", "--broker-dir", str(root), "--topic", "a"]) == 51
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert bad.read_bytes() == before

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts /proc/self/fd")
    def test_failed_create_topic_closes_and_unwrites(self, tmp_path):
        # a topic directory that lost its topic.json, with a bad frame in
        # partition 2's sealed segment: recreating it must fail clean
        root = tmp_path / "log"
        with Broker(root, segment_bytes=256) as b:
            b.create_topic("t", partitions=3)
            for i in range(30):
                b.produce("t", f"payload-{i:04d}".encode())
        meta = root / "topics" / "t" / "topic.json"
        meta.unlink()
        bad = sorted((root / "topics" / "t" / "2").glob("*.log"))[0]
        damaged = bytearray(bad.read_bytes())
        damaged[20] ^= 0xFF
        bad.write_bytes(bytes(damaged))
        open_fds = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with Broker(root, segment_bytes=256) as b:
                with pytest.raises(CorruptPayload):
                    b.create_topic("t", partitions=3)
                assert b.topics() == []
            assert not meta.exists()
            assert main(["broker", "create-topic", "--broker-dir", str(root), "--topic", "t",
                         "--partitions", "3"]) == 51
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert not meta.exists()
        assert bad.read_bytes() == bytes(damaged)


def _value(i: int, size: int) -> bytes:
    return (f"<{i}>".encode() * (size // 3 + 1))[:size]


def _collected(broker: Broker, starts: dict[int, int], max_records: int) -> list[tuple]:
    return [(r.partition, r.offset, r.key, r.value, r.timestamp_ms)
            for r in broker._collect("t", starts, max_records)]


class TestWindowedReads:
    """Consume and the reopen scan read runs of frames through windows of
    ``READ_WINDOW`` bytes; they must see what reading one frame at a time
    sees."""

    @settings(max_examples=60, deadline=None)
    @given(partitions=st.integers(1, 4), segment_bytes=st.sampled_from([64, 300, 2048]),
           records=st.lists(st.tuples(st.sampled_from([None, None, b"a", b"key-2", b""]),
                                      st.integers(0, 300) | st.integers(0, 300)
                                      | st.sampled_from([READ_WINDOW - 30, READ_WINDOW + 1,
                                                         2 * READ_WINDOW + 7])),
                            max_size=30),
           data=st.data())
    def test_collect_matches_the_one_record_reader(self, partitions, segment_bytes, records,
                                                   data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "log"
            with Broker(root, durability="none", segment_bytes=segment_bytes) as b:
                b.create_topic("t", partitions=partitions)
                for i, (key, size) in enumerate(records):
                    b.produce("t", _value(i, size), key=key, timestamp_ms=1_700_000_000_000 + i)
                ends = b.end_offsets("t")
                # a start may sit past the end, as a commit that a torn tail outlived does
                starts = {p: data.draw(st.integers(0, end + 1)) for p, end in enumerate(ends)}
                backlog = sum(max(end - starts[p], 0) for p, end in enumerate(ends))
                max_records = data.draw(st.integers(1, max(backlog, 1)))
                expected = collect_reference(root / "topics" / "t", partitions, starts,
                                             max_records)
                assert len(expected) == min(backlog, max_records)
                assert _collected(b, starts, max_records) == expected
            with Broker(root, segment_bytes=segment_bytes) as b:  # positions from the scan
                assert _collected(b, starts, max_records) == expected

    @pytest.mark.parametrize("partitions", [1, 3])
    def test_runs_of_small_frames_span_many_windows(self, tmp_path, partitions):
        root = tmp_path / "log"
        with Broker(root, durability="none") as b:
            b.create_topic("t", partitions=partitions)
            for i in range(3000):
                b.produce("t", _value(i, 100 + i % 90), timestamp_ms=i)
            for starts, max_records in (({0: 0}, 3000), ({0: 17, 2: 400}, 2500),
                                        ({1: 999}, 1)):
                expected = collect_reference(root / "topics" / "t", partitions, starts,
                                             max_records)
                assert _collected(b, starts, max_records) == expected

    @pytest.mark.parametrize("past_window", [-1, 0, 1])
    def test_frames_ending_at_a_window_boundary(self, tmp_path, past_window):
        # value sizes such that the second frame ends next to the first window's end
        root = tmp_path / "log"
        sizes = [READ_WINDOW + past_window - 24 - 100, 76] + [50] * 10
        with Broker(root, durability="none") as b:
            b.create_topic("t")
            for i, size in enumerate(sizes):
                b.produce("t", _value(i, size), timestamp_ms=i)
            expected = collect_reference(root / "topics" / "t", 1, {0: 0}, len(sizes))
            assert [v for _, _, _, v, _ in expected] == [_value(i, n) for i, n in enumerate(sizes)]
            assert _collected(b, {0: 0}, len(sizes)) == expected
            assert _collected(b, {0: 1}, 2) == expected[1:3]
        with Broker(root) as b:
            assert _collected(b, {0: 0}, len(sizes)) == expected

    def test_frame_written_but_not_yet_indexed_stays_unread(self, tmp_path):
        # the state a consumer can catch a producer in: the frame is written
        # and counted in the segment size, its position not yet appended
        with Broker(tmp_path / "log", durability="none") as b:
            b.create_topic("t")
            for i in range(3):
                b.produce("t", _value(i, 20), timestamp_ms=i)
            b._topics["t"].partitions[0].segments[-1].positions.pop()
            assert _collected(b, {0: 0}, 10) == [(0, i, None, _value(i, 20), i) for i in range(2)]
            assert _collected(b, {0: 1}, 10) == [(0, 1, None, _value(1, 20), 1)]

    FRAME = 1124  # 8 header + 16 body fields + an 1,100-byte value
    IN_WINDOW = 58  # whole frames in the first window; the 59th crosses its end

    @pytest.mark.parametrize("tail", ["short frame", "bad crc"])
    def test_torn_tail_across_a_window_boundary_is_truncated(self, tmp_path, tail):
        root = tmp_path / "log"
        with Broker(root) as b:
            b.create_topic("t")
            for i in range(self.IN_WINDOW):
                b.produce("t", _value(i, 1100))
        seg = next((root / "topics" / "t" / "0").glob("*.log"))
        kept = seg.read_bytes()
        assert len(kept) == self.IN_WINDOW * self.FRAME < READ_WINDOW
        frame = kept[:self.FRAME]
        torn = frame[:700] if tail == "short frame" else frame[:4] + b"\0\0\0\0" + frame[8:]
        seg.write_bytes(kept + torn)
        assert seg.stat().st_size > READ_WINDOW
        with Broker(root) as b:
            assert b.end_offsets("t") == [self.IN_WINDOW]
            assert seg.read_bytes() == kept
            b.produce("t", b"after")
            records = b.consume("t", "g", max_records=100)
        assert [r.value for r in records] == [_value(i, 1100) for i in range(self.IN_WINDOW)] \
            + [b"after"]

    def test_bad_frame_in_a_later_window_of_a_sealed_segment(self, tmp_path):
        root = tmp_path / "log"
        with Broker(root, segment_bytes=100_000) as b:
            b.create_topic("t")
            for i in range(100):
                b.produce("t", _value(i, 1100))
        segs = sorted((root / "topics" / "t" / "0").glob("*.log"))
        assert len(segs) == 2 and segs[0].stat().st_size == 88 * self.FRAME
        at = 70 * self.FRAME  # the 71st frame, in the second window
        assert at > READ_WINDOW
        damaged = bytearray(segs[0].read_bytes())
        damaged[at + 30] ^= 0xFF
        segs[0].write_bytes(bytes(damaged))
        with pytest.raises(CorruptPayload, match=rf"00000000000000000000\.log.* byte {at} "):
            Broker(root, segment_bytes=100_000)
        assert segs[0].read_bytes() == bytes(damaged)


class TestConcurrency:
    def test_gapless_ordering_under_concurrent_producers(self, tmp_path):
        n_producers, per_producer = 8, 1000
        with Broker(tmp_path / "log") as b:
            b.create_topic("t", partitions=4)
            errors = []

            def produce(worker):
                try:
                    for i in range(per_producer):
                        b.produce("t", f"{worker}:{i}".encode())
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=produce, args=(w,))
                       for w in range(n_producers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            total = n_producers * per_producer
            assert sum(b.end_offsets("t")) == total
            seen: dict[int, list[int]] = {}
            consumed = []
            while True:
                batch = b.consume("t", "g", max_records=997)
                if not batch:
                    break
                consumed.extend(batch)
                broker_commit = {}
                for r in batch:
                    seen.setdefault(r.partition, []).append(r.offset)
                    broker_commit[r.partition] = max(
                        broker_commit.get(r.partition, -1), r.offset)
                b.commit("g", "t", {p: o + 1 for p, o in broker_commit.items()})
            for offsets in seen.values():
                assert offsets == list(range(len(offsets)))
            assert Counter(r.value for r in consumed) == Counter(
                f"{w}:{i}".encode() for w in range(n_producers) for i in range(per_producer))


    def test_consumer_during_concurrent_producers(self, tmp_path):
        # the consumer reads positions and sizes the producers are growing,
        # without their lock; unkeyed records round-robin on a shared counter
        n_producers, per_producer, max_records = 4, 600, 7
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Broker(tmp_path / "log", durability="none", segment_bytes=2048) as b:
                b.create_topic("t", partitions=3)
                done = threading.Event()
                batches: list[list] = []

                def produce(worker):
                    for i in range(per_producer):
                        b.produce("t", f"{worker}:{i}".encode() * (1 + i % 5))

                def consume():
                    while True:
                        last = done.is_set()
                        batch = b.consume("t", "g", max_records=max_records)
                        if batch:
                            batches.append(batch)
                            b.commit("g", "t", {r.partition: r.offset + 1 for r in batch})
                        elif last:
                            return

                consumer = threading.Thread(target=consume)
                consumer.start()
                producers = [threading.Thread(target=produce, args=(w,))
                             for w in range(n_producers)]
                for t in producers:
                    t.start()
                for t in producers:
                    t.join(timeout=60)
                done.set()
                consumer.join(timeout=60)
                assert not consumer.is_alive() and not any(t.is_alive() for t in producers)
                total = n_producers * per_producer
                assert b.end_offsets("t") == [total // 3] * 3
        finally:
            sys.setswitchinterval(interval)
        assert all(len(batch) <= max_records for batch in batches)
        seen: dict[int, list[int]] = {}
        for batch in batches:
            for r in batch:
                seen.setdefault(r.partition, []).append(r.offset)
        assert seen == {p: list(range(total // 3)) for p in range(3)}
        assert Counter(r.value for batch in batches for r in batch) == Counter(
            f"{w}:{i}".encode() * (1 + i % 5) for w in range(n_producers)
            for i in range(per_producer))


@pytest.mark.parametrize("run", range(3))
def test_kill_and_restart_loses_no_acked_records(tmp_path, run):
    """Module-scale version of the crash criterion (3 randomized points)."""
    acked = _crash_run(tmp_path / "log", f"run{run}", kill_after_ms=30 + run * 17)
    with Broker(tmp_path / "log") as b:
        survived = set()
        while True:
            batch = b.consume("crash", "verify", max_records=1000)
            if not batch:
                break
            survived.update(r.value.decode() for r in batch)
            b.commit("verify", "crash",
                     {p: max(r.offset for r in batch if r.partition == p) + 1
                      for p in {r.partition for r in batch}})
    assert acked <= survived, f"lost acked records: {sorted(acked - survived)[:5]}"


def _crash_run(root: Path, run_id: str, kill_after_ms: float) -> set[str]:
    """Start a fsync-mode producer, kill -9 it kill_after_ms after its
    first ack, and return every payload it acked before dying."""
    script = Path(__file__).parent / "crash_producer.py"
    proc = subprocess.Popen([sys.executable, str(script), str(root), run_id],
                            stdout=subprocess.PIPE)
    first = proc.stdout.readline()  # blocks until the first durable ack
    time.sleep(kill_after_ms / 1000.0)
    proc.send_signal(signal.SIGKILL)
    out, _ = proc.communicate()
    acked = {line for line in (first + out).decode().splitlines() if line}
    assert acked, "producer never acked anything"
    return acked


class TestGroupFiles:
    @pytest.mark.parametrize("state", ['{"T/x": 1}', '{"T/0": "1"}', '{"T/0": 1.5}',
                                       '{"T/0": [1]}', '{"T/0": -3}', '{"T": 1}',
                                       '{"T/01": 1}', '{"T/0": true}', '{"/0": 1}'])
    def test_malformed_offsets_are_corrupt_payload_at_open(self, tmp_path, state):
        groups = tmp_path / "log" / "groups"
        groups.mkdir(parents=True)
        (groups / "g.json").write_text(state, "utf-8")
        with pytest.raises(CorruptPayload, match=r"g\.json"):
            Broker(tmp_path / "log")
        assert main(["report", "--broker-dir", str(tmp_path / "log"), "--group", "g"]) == 51

    def test_a_commit_past_its_partition_end_is_corrupt_payload_at_open(self, tmp_path):
        # read on from 10, the group would never see offsets 5-9 produced after the reopen
        root = tmp_path / "log"
        with Broker(root) as b:
            b.create_topic("t")
            for i in range(10):
                b.produce("t", str(i).encode())
            b.commit("g", "t", {0: 10})
        seg = next((root / "topics" / "t" / "0").glob("*.log"))
        seg.write_bytes(seg.read_bytes()[:seg.stat().st_size // 2])  # 5 whole frames
        files = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        with pytest.raises(CorruptPayload, match=r"g\.json: t/0: 10 past end 5$"):
            Broker(root)
        assert main(["broker", "offsets", "--broker-dir", str(root), "--topic", "t"]) == 51
        assert {path: path.read_bytes() for path in root.rglob("*") if path.is_file()} == files

    def test_commits_for_missing_topics_and_partitions_are_ignored(self, tmp_path):
        root = tmp_path / "log"
        with Broker(root) as b:
            b.create_topic("t")
            for i in range(5):
                b.produce("t", str(i).encode())
        (root / "groups" / "g.json").write_text('{"t/0": 5, "t/1": 9, "u/0": 9}', "utf-8")
        with Broker(root) as b:
            assert b.consume("t", "g") == []

    @pytest.mark.parametrize("durability,fsyncs", [("fsync", 1), ("batch", 1), ("none", 0)])
    def test_topic_metadata_is_fsynced_like_a_commit(self, tmp_path, monkeypatch,
                                                      durability, fsyncs):
        calls = []
        fsync = os.fsync
        with Broker(tmp_path / "log", durability=durability) as b:
            monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or fsync(fd))
            b.create_topic("t", partitions=2)
            created = len(calls)
            b.commit("g", "t", {0: 0})
            monkeypatch.undo()
        assert created == len(calls) - created == fsyncs
        assert (tmp_path / "log" / "topics" / "t" / "topic.json").read_text() \
            == '{"name": "t", "partitions": 2}'
