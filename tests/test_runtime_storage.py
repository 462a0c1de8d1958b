"""The storage contract of the process runtime's data plane.

Three promises, each pinned here without starting a worker: a record
*range* decodes exactly like a slice of the full decode (and a torn
frame in or ahead of the range still raises); a map output or a reduce
piece is one indexed section appended to its job's segment behind one
fsync, and published only then — all of its slices or none, never a
short one, and nothing the section headers on disk do not say (one set
of tests drives both kinds of section); and the final checksum
hashed from stored bytes equals the decode-sort-encode definition on
every sink shape (one piece, split pieces, a cache-adopted donor piece).
"""

import os
import struct
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.localexec import LocalJobConfig
from repro.localexec.records import Record, generate_records, split_of
from repro.runtime import storage
from repro.runtime.coordinator import Coordinator, RuntimeConfig
from repro.runtime.storage import (
    FRAME_HEADER,
    MemoryTier,
    NodeStore,
    PieceEntry,
    chain_checksum,
    decode_columns,
    decode_records,
    encode_columns,
    encode_records,
    filter_split_spans,
    iter_record_frames,
    iter_records,
    partition_columns,
    piece_key,
    scan_segment,
)
from tests.test_localexec import to_records

records_strategy = st.one_of(
    # uniform values (the vectorized encode path) and ragged ones
    st.integers(0, 12).flatmap(lambda size: st.lists(st.builds(
        Record, st.integers(0, 2**64 - 1),
        st.binary(min_size=size, max_size=size)), max_size=24)),
    st.lists(st.builds(Record, st.integers(0, 2**64 - 1),
                       st.binary(max_size=12)), max_size=24))


# ------------------------------------------------------------ ranged decode
@settings(max_examples=150, deadline=None)
@given(records=records_strategy, start=st.integers(0, 30),
       count=st.one_of(st.none(), st.integers(0, 30)))
def test_ranged_decode_equals_a_slice_of_the_full_decode(records, start,
                                                         count):
    data = encode_records(records)
    stop = None if count is None else start + count
    assert list(iter_records(data, start, count)) == \
        decode_records(data)[start:stop] == records[start:stop]


def test_ranged_decode_edges():
    records = generate_records(10, seed=1, value_size=20)
    data = encode_records(records)
    assert list(iter_records(data)) == records  # the spine's call shape
    assert list(iter_records(data, 4, 0)) == []
    assert list(iter_records(data, 10, 5)) == []  # start at the end
    assert list(iter_records(data, 99, 5)) == []  # ... and past it
    assert list(iter_records(data, 8, 5)) == records[8:]  # clipped
    assert list(iter_records(data, start=3)) == records[3:]


def test_ranged_decode_never_touches_frames_after_the_range():
    records = generate_records(10, seed=2, value_size=20)
    frame = FRAME_HEADER + 20
    data = encode_records(records)
    # a torn tail is invisible to a range that ends before it ...
    for torn in (data[:-1], data[:9 * frame + 5]):
        assert list(iter_records(torn, 2, 4)) == records[2:6]
        # ... and an error to everything that has to walk over it
        with pytest.raises(ValueError, match="truncated record"):
            list(iter_records(torn))
        with pytest.raises(ValueError, match="truncated record"):
            list(iter_records(torn, 8, 2))  # inside the range


def test_ranged_decode_checks_the_frames_before_the_range():
    """Frames ahead of the range are walked by header only, but a header
    or value cut short there must still raise: a length field pointing
    past the end would otherwise send the walk into garbage."""
    data = encode_records([Record(1, b"a" * 8), Record(2, b"b" * 8)])
    first = FRAME_HEADER + 8
    with pytest.raises(ValueError, match="truncated record value"):
        list(iter_records(data[:first - 1], 1, 1))  # value before range
    with pytest.raises(ValueError, match="truncated record header"):
        list(iter_records(data[:first + 5], 1, 1))  # header in range
    with pytest.raises(ValueError, match="truncated record header"):
        list(iter_records(data[:5], 3, 1))  # header before range


# ------------------------------------------------------------ column codec
@settings(max_examples=200, deadline=None)
@given(records=records_strategy, start=st.integers(0, 30),
       count=st.one_of(st.none(), st.integers(0, 30)))
def test_decode_columns_equals_iter_records(records, start, count):
    data = encode_records(records)
    keys, values = decode_columns(data, start, count)
    assert to_records(keys, values) == \
        list(iter_records(data, start, count))
    # uniform frames decode to the value matrix, not the ragged fallback
    if records and len({len(r.value) for r in records}) == 1:
        assert values.shape == (len(keys), len(records[0].value))
    stop = None if count is None else start + count
    assert encode_columns(keys, values) == encode_records(records[start:stop])
    assert decode_columns(memoryview(data), start, count)[0].tolist() == \
        keys.tolist()


def test_decode_columns_raises_where_iter_records_does():
    """Torn bytes never reshape: a torn frame before or in the range
    raises the frame walk's error, one past the range is never seen."""
    records = generate_records(10, seed=2, value_size=20)
    frame = FRAME_HEADER + 20
    data = encode_records(records)
    for torn in (data[:-1], data[:9 * frame + 5]):
        assert to_records(*decode_columns(torn, 2, 4)) == \
            records[2:6]
        with pytest.raises(ValueError, match="truncated record"):
            decode_columns(torn)
        with pytest.raises(ValueError, match="truncated record"):
            decode_columns(torn, 8, 2)
    with pytest.raises(ValueError, match="truncated record value"):
        decode_columns(data[:frame - 1], 1, 1)  # value before the range
    with pytest.raises(ValueError, match="truncated record header"):
        decode_columns(data[:frame + 5], 1, 1)  # header in the range
    with pytest.raises(ValueError, match="truncated record header"):
        decode_columns(data[:5], 3, 1)  # header before the range


def test_decode_columns_checks_every_length_field_against_the_stride():
    """The size dividing by the first frame's stride is not enough: one
    length field that disagrees sends the bytes down the frame walk."""
    a, b = Record(1, b"x" * 4), Record(2, b"y" * 4)
    # 48 bytes = 3 strides of 16, but the frames are 16, 20 and 12 long
    ragged = [a, Record(3, b"z" * 8), Record(4, b"")]
    data = encode_records(ragged)
    assert len(data) % (FRAME_HEADER + 4) == 0
    assert to_records(*decode_columns(data)) == ragged
    # same size, a length field overwritten: the walk runs off the end
    good = encode_records([a, b, a])
    bad = good[:16 + 8] + (99).to_bytes(4, "big") + good[16 + 12:]
    for decode in (decode_columns, lambda d: list(iter_records(d))):
        with pytest.raises(ValueError, match="truncated record value"):
            decode(bad)
    assert to_records(*decode_columns(bad, 0, 1)) == [a]


@settings(max_examples=150, deadline=None)
@given(records=st.one_of(records_strategy, st.lists(st.builds(
    # keys a few multiples of the split hash's divisor apart: long runs
    Record, st.integers(0, 20 * 7919), st.just(b"12345678")), max_size=40)))
def test_filter_split_spans_equal_the_frame_walk(records):
    """One mask over the key column keeps exactly the frames the
    per-frame ``split_of`` test keeps, and the splits tile the input in
    frame order."""
    data = encode_records(records)
    frames = list(iter_record_frames(data))
    for n_splits in range(1, 6):
        owners = [split_of(key, n_splits) for key, _, _ in frames]
        streams = []
        for split in range(n_splits):
            spans = filter_split_spans(data, split, n_splits)
            assert b"".join(spans) == b"".join(
                data[lo:hi] for (_, lo, hi), owner in zip(frames, owners)
                if owner == split)
            assert all(len(span) for span in spans)
            streams.append(memoryview(b"".join(spans)))
        # dealing the frames back out in input order rebuilds the input
        rebuilt, cursors = [], [0] * n_splits
        for (_, lo, hi), owner in zip(frames, owners):
            at = cursors[owner]
            rebuilt.append(streams[owner][at:at + hi - lo])
            cursors[owner] += hi - lo
        assert b"".join(rebuilt) == data


@settings(max_examples=100, deadline=None)
@given(records=records_strategy, n_partitions=st.integers(1, 5))
@example(records=generate_records(3000, seed=3, value_size=16),
         n_partitions=8)  # a map block of the spine's shape
def test_partition_columns_routes_like_partition_of(records, n_partitions):
    slices = partition_columns(*decode_columns(encode_records(records)),
                               n_partitions)
    assert list(slices) == sorted(slices)  # ascending, and only non-empty
    assert slices == {
        p: (len(mine), encode_records(mine))
        for p in range(n_partitions)
        if (mine := [r for r in records if r.key % n_partitions == p])}


# ------------------------------------------ one segment per node and job
def _slices(seed=3):
    records = generate_records(40, seed=seed, value_size=24)
    return {p: [r for r in records if r.key % 4 == p] for p in (0, 1, 3)}


def _encoded(seed=3):
    return {p: encode_records(records)
            for p, records in _slices(seed).items()}


def _files(store):
    return sorted(str(p.relative_to(store.dir))
                  for p in store.dir.rglob("*") if p.is_file())


class MapOutputs:
    """Map outputs as the segment tests drive them: key ``k`` is task
    ``k``'s output, three slices of ``_slices(seed)``."""

    slices = 3

    @staticmethod
    def path(store, job=1):
        return store.map_segment_path(job)

    @staticmethod
    def key(k):
        return k

    @staticmethod
    def write(store, k, seed, job=1):
        store.write_map_output(job, k, None, _slices(seed))

    @staticmethod
    def read(store, k, job=1):
        """The output's bytes, ``None`` when it has no live section."""
        return b"".join(store.read_map_slice(job, k, p)
                        for p in range(4)) or None

    @staticmethod
    def expected(seed):
        return b"".join(_encoded(seed).values())

    @staticmethod
    def drop(store, k, job=1):
        store.drop_map_output(job, k)

    @staticmethod
    def reclaim(store, job):
        return store.reclaim_job_sets({job}, ())

    #: the same read in a fresh interpreter (``store`` is set up there)
    read_code = "b''.join(store.read_map_slice(2, 7, p) for p in range(4))"


class Pieces:
    """Reduce pieces: key ``k`` is the unsplit piece of partition ``k``,
    one slice of ``_slices(seed)``'s records."""

    slices = 1

    @staticmethod
    def path(store, job=1):
        return store.reduce_segment_path(job)

    @staticmethod
    def key(k):
        return piece_key(k, 0, 1)

    @staticmethod
    def write(store, k, seed, job=1):
        store.write_piece(job, k, 0, 1, Pieces.records(seed))

    @staticmethod
    def read(store, k, job=1):
        try:
            return store.read_piece(job, k, 0, 1)
        except FileNotFoundError:
            return None

    @staticmethod
    def records(seed):
        return sorted(r for rs in _slices(seed).values() for r in rs)

    @staticmethod
    def expected(seed):
        return encode_records(Pieces.records(seed))

    @staticmethod
    def drop(store, k, job=1):
        store.drop_piece(job, k, 0, 1)

    @staticmethod
    def reclaim(store, job):
        return store.reclaim_job_sets((), {job})

    read_code = "store.read_piece(2, 7, 0, 1)"


#: both kinds of section: one set of tests for their one format
KINDS = (MapOutputs, Pieces)


def _section_bytes(kind, tmp_path, k, seed):
    """The bytes one write of ``kind`` appends, made in a scratch
    store."""
    scratch = NodeStore(tmp_path / f"scratch-{kind.__name__}-{k}", 0)
    kind.write(scratch, k, seed)
    scratch.close()
    return kind.path(scratch).read_bytes()


def test_map_output_is_one_fsync_and_one_file(stores, tmp_path, monkeypatch):
    """A job's map outputs are one file.  Its first task creates it;
    every later task is one append and one fsync — nothing is opened,
    created or renamed."""
    calls = []

    def spy(name, real):
        def spied(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return spied

    monkeypatch.setattr(os, "fsync", spy("fsync", os.fsync))
    monkeypatch.setattr(os, "replace", spy("replace", os.replace))
    monkeypatch.setattr(storage, "open", spy("open", open), raising=False)
    store = stores(tmp_path, 2)
    slices = _slices()
    counts = store.write_map_output(3, 1000007, (2, 5), slices)
    assert calls.count("fsync") == 1 and "replace" not in calls
    assert counts == {p: len(records) for p, records in slices.items()}
    del calls[:]
    inode = store.map_segment_path(3).stat().st_ino
    for task in (4, 5):
        store.write_map_output(3, task, None, _slices(seed=task))
    assert calls == ["fsync", "fsync"]
    monkeypatch.undo()
    # no per-task file, no meta.json, no per-slice file, no tmp
    assert _files(store) == ["map/job3.seg"]
    assert store.map_segment_path(3).stat().st_ino == inode
    for partition, records in slices.items():
        assert store.read_map_slice(3, 1000007, partition) == \
            encode_records(records)
    assert store.read_map_slice(3, 1000007, 2) == b""  # no such slice
    assert store.read_map_slice(3, 5, 3) == _encoded(seed=5)[3]
    index = scan_segment(store.map_segment_path(3))
    assert sorted(index) == [4, 5, 1000007]
    origin, slots = index[1000007]
    assert origin == (2, 5)
    assert {p: count for p, (_, _, count) in slots.items()} == counts


def test_a_piece_is_one_section_of_its_jobs_reduce_segment(
        stores, tmp_path, monkeypatch):
    """A reduce piece, primary or replica, is a map output's section
    with one slot: keyed by its packed signature, no origin, its record
    count in the slot.  One append and one fsync — nothing renamed, no
    directory per partition."""
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: calls.append("fsync") or real_fsync(fd))
    monkeypatch.setattr(os, "replace", lambda *a: calls.append("replace"))
    store = stores(tmp_path, 0)
    records = Pieces.records(3)
    data = encode_records(records)
    store.write_piece_bytes(2, 5, 1, 3, data)       # a replica's bytes
    store.write_piece(2, 6, 0, 1, records[:7])     # a reducer's records
    assert calls == ["fsync", "fsync"]
    monkeypatch.undo()
    assert _files(store) == ["reduce/job2.seg"]
    key = piece_key(5, 1, 3)
    slot = storage._INDEX_SLOT.pack(5, 0, len(data), len(records))
    head = (storage._SECTION.pack(storage._INDEX_HEAD.size + len(slot)
                                  + len(data), key)
            + storage._INDEX_HEAD.pack(len(slot), key, -1, -1) + slot)
    assert store.reduce_segment_path(2).read_bytes().startswith(head + data)
    index = scan_segment(store.reduce_segment_path(2))
    assert sorted(index) == sorted([key, piece_key(6, 0, 1)])
    assert index[key] == (None, {5: (len(head), len(data), len(records))})
    assert index[piece_key(6, 0, 1)][1][6][2] == 7
    for reader in (store, NodeStore(tmp_path, 0)):
        assert reader.read_piece(2, 5, 1, 3) == data
        with pytest.raises(FileNotFoundError):
            reader.read_piece(2, 5, 0, 3)  # another split: no section
        with pytest.raises(FileNotFoundError):
            reader.read_piece(9, 5, 1, 3)  # another job: no segment
    with pytest.raises(struct.error):  # no signature overflows the key
        piece_key(0, 0, 1 << 16)


def test_map_output_index_roundtrips_no_origin_and_empty_slices(stores,
                                                                tmp_path):
    store = stores(tmp_path, 0)
    assert store.write_map_output(1, 0, None, {0: [], 2: []}) == {0: 0, 2: 0}
    assert store.write_map_output(1, 1, None, {}) == {}  # a block of nothing
    store.write_piece(1, 4, 0, 1, [])  # a partition no key routed to
    index = scan_segment(store.map_segment_path(1))
    assert index[0][0] is None and sorted(index[0][1]) == [0, 2]
    assert index[1] == (None, {})  # an empty section is no tombstone
    for reader in (store, stores(tmp_path, 0)):
        assert reader.read_map_slice(1, 0, 0) == b""
        assert reader.read_map_slice(1, 1, 0) == b""
        assert reader.read_piece(1, 4, 0, 1) == b""


def test_reader_during_a_held_fsync_does_not_see_the_section(
        stores, tmp_path, monkeypatch):
    """Publish is after durable: while a section's fsync is in flight a
    reader of the same store gets "no such output" for it — without
    waiting for the disk, and without that answer sticking — and still
    reads what was committed before."""
    real_fsync = os.fsync
    for kind in KINDS:
        store = stores(tmp_path / kind.__name__, 0,
                       memory=MemoryTier(1 << 20))
        kind.write(store, 0, seed=3)
        entered, release = threading.Event(), threading.Event()

        def held(fd):
            entered.set()
            assert release.wait(10.0)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", held)
        writer = threading.Thread(target=kind.write, args=(store, 4, 4))
        writer.start()
        try:
            assert entered.wait(10.0)
            for _ in range(2):
                assert kind.read(store, 4) is None
            # key 0's slices, all
            assert store.memory.stats()["entries"] == kind.slices
            store.memory.invalidate_prefix("")  # ... and from the disk
            assert kind.read(store, 0) == kind.expected(3)
        finally:
            release.set()
            writer.join(10.0)
        monkeypatch.undo()
        assert not writer.is_alive()
        assert kind.read(store, 4) == kind.expected(4)


def test_crash_between_write_and_publish_commits_nothing(stores, tmp_path,
                                                         monkeypatch):
    def crash(fd):
        raise KeyboardInterrupt("SIGKILL stand-in")

    for kind in KINDS:
        store = stores(tmp_path / kind.__name__, 0,
                       memory=MemoryTier(1 << 20))
        monkeypatch.setattr(os, "fsync", crash)
        with pytest.raises(KeyboardInterrupt):
            kind.write(store, 4, seed=3)
        monkeypatch.undo()
        # nothing published, nothing pinned hot: the only trace is a
        # section no commit message ever named, which the recomputed
        # task supersedes (the later section wins) and the job's sweep
        # removes
        assert store.memory.stats()["entries"] == 0
        assert kind.read(store, 4) is None
        assert _files(store) == [str(kind.path(store).relative_to(
            store.dir))]
        kind.write(store, 4, seed=9)
        for reader in (store, stores(tmp_path / kind.__name__, 0)):
            assert kind.read(reader, 4) == kind.expected(9)
        store.drop_job(1)
        assert _files(store) == []


def test_torn_tail_is_invisible_and_the_next_writer_truncates_it(stores,
                                                                 tmp_path):
    """What a SIGKILL mid-append leaves: half a section behind two
    complete ones.  No scan sees it, and the dead incarnation's
    successor cuts it off before it appends, so its own sections stay
    reachable."""
    for kind in KINDS:
        root = tmp_path / kind.__name__
        first = stores(root, 0)
        kind.write(first, 0, seed=0)
        kind.write(first, 1, seed=1)
        first.close()
        path = kind.path(first)
        whole = path.stat().st_size
        section = _section_bytes(kind, tmp_path, 2, seed=2)
        for cut in (1, 15, 16, 40, len(section) // 2, len(section) - 1):
            with open(path, "r+b") as fh:
                fh.truncate(whole)
                fh.seek(whole)
                fh.write(section[:cut])
            assert sorted(scan_segment(path)) == [kind.key(0), kind.key(1)]
            assert kind.read(stores(root, 0), 2) is None
        successor = stores(root, 0)
        kind.write(successor, 3, seed=3)
        assert sorted(scan_segment(path)) == [kind.key(k) for k in (0, 1, 3)]
        assert path.stat().st_size == whole + len(
            _section_bytes(kind, tmp_path, 3, seed=3))
        for k in (0, 1, 3):
            assert kind.read(successor, k) == kind.expected(k)


def test_tombstone_hides_a_task_and_a_rewrite_unhides_it(stores, tmp_path):
    for kind in KINDS:
        root = tmp_path / kind.__name__
        store = stores(root, 0, memory=MemoryTier(1 << 20))
        path = kind.path(store)
        kind.write(store, 5, seed=5)
        kind.write(store, 6, seed=6)
        kind.drop(store, 5)
        kind.drop(store, 5)   # idempotent: one tombstone, not two
        kind.drop(store, 99)  # ... and none for a key never written
        kind.drop(store, 0, job=7)  # ... nor a segment for a job never run
        assert _files(store) == [str(path.relative_to(store.dir))]
        size = path.stat().st_size
        assert sorted(scan_segment(path)) == [kind.key(6)]
        for reader in (store, stores(root, 0)):
            assert kind.read(reader, 5) is None
            assert kind.read(reader, 6) == kind.expected(6)
        kind.write(store, 5, seed=8)  # the recompute
        assert sorted(scan_segment(path)) == [kind.key(5), kind.key(6)]
        for reader in (store, stores(root, 0)):
            assert kind.read(reader, 5) == kind.expected(8)
        # append-only throughout: nothing before the tombstone moved
        assert path.stat().st_size == size + len(
            _section_bytes(kind, tmp_path, 5, seed=8))


def test_a_second_store_and_a_second_process_read_what_the_first_wrote(
        stores, tmp_path):
    """Disk is the truth and the index a cache: a store that never saw
    the writes — in this process or another — scans the segment."""
    for kind in KINDS:
        root = tmp_path / kind.__name__
        kind.write(stores(root, 0, chain="c0001"), 7, seed=3, job=2)
        second = stores(root, 0).for_chain("c0001")
        assert kind.read(second, 7, job=2) == kind.expected(3)
        code = ("import sys; from repro.runtime.storage import NodeStore; "
                "store = NodeStore(sys.argv[1], 0, chain='c0001'); "
                f"sys.stdout.buffer.write({kind.read_code})")
        done = subprocess.run([sys.executable, "-c", code, str(root)],
                              capture_output=True, timeout=60, check=True)
        assert done.stdout == kind.expected(3)


def test_concurrent_appends_scan_to_intact_sections(stores, tmp_path):
    """Two slot threads appending to one segment: sections never
    interleave, every one is published, and the bytes are intact."""
    for kind in KINDS:
        root = tmp_path / kind.__name__
        store = stores(root, 0)
        errors = []

        def slot(keys):
            try:
                for k in keys:
                    kind.write(store, k, seed=k % 7)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=slot,
                                        args=(range(i, 400, 2),))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert sorted(scan_segment(kind.path(store))) == \
            [kind.key(k) for k in range(400)]
        for reader in (store, stores(root, 0)):
            for k in (0, 1, 199, 398, 399):
                assert kind.read(reader, k) == kind.expected(k % 7)


def test_torn_or_corrupt_map_output_raises_instead_of_serving_short(
        stores, tmp_path):
    store = stores(tmp_path, 0)
    store.write_map_output(1, 0, (1, 2), _slices())
    path = store.map_segment_path(1)
    whole = path.read_bytes()
    slots = scan_segment(path)[0][1]
    slot_bytes = int.from_bytes(whole[16:20], "big")
    index_end = 16 + 4 + 3 * 8 + slot_bytes
    assert slot_bytes == 3 * 24  # three slices, one slot each
    assert int.from_bytes(whole[:8], "big") == len(whole) - 16
    for cut in (0, 2, 16, 36, index_end - 1,  # inside header and index
                index_end, len(whole) - 1):   # inside the slices
        path.write_bytes(whole[:cut])
        for partition, data in _encoded().items():
            # the store that wrote it trusts its index: a slice cut
            # short behind its back raises (one the cut spared is whole)
            offset, length, _ = slots[partition]
            if offset + length <= cut:
                assert store.read_map_slice(1, 0, partition) == data
            else:
                with pytest.raises(ValueError,
                                   match="truncated map output"):
                    store.read_map_slice(1, 0, partition)
            # ... and to a scan it is a torn tail: no output, never short
            assert stores(tmp_path, 0).read_map_slice(1, 0, partition) \
                == b""
    # a *complete* section whose index lies is corrupt, not torn: a slot
    # area that is no whole number of slots, a slice past the section's
    # end, an index head naming another task
    last_length = 16 + 28 + 2 * 24 + 4 + 8
    for lie, message in (
            (whole[:16] + (slot_bytes + 3).to_bytes(4, "big") + whole[20:],
             "corrupt map output index"),
            (whole[:last_length] + (1 << 40).to_bytes(8, "big")
             + whole[last_length + 8:], "truncated map output"),
            (whole[:20] + (77).to_bytes(8, "big") + whole[28:],
             "truncated map output")):
        path.write_bytes(lie)
        with pytest.raises(ValueError, match=message):
            scan_segment(path)
        with pytest.raises(ValueError, match=message):
            stores(tmp_path, 0).read_map_slice(1, 0, 0)
    path.write_bytes(whole)
    for reader in (store, stores(tmp_path, 0)):
        assert decode_records(reader.read_map_slice(1, 0, 3)) == \
            _slices()[3]


# ---------------------------------------------------------------- memory tier
def test_evicted_slice_reloads_from_the_single_file(stores, tmp_path):
    slices = _slices()
    largest = max(len(encode_records(records))
                  for records in slices.values())
    tier = MemoryTier(largest)  # never room for all three slices
    store = stores(tmp_path, 0, memory=tier)
    store.write_map_output(1, 0, None, slices)
    assert tier.stats()["entries"] < 3 and tier.spills >= 1
    for _ in range(2):  # each pass evicts what the next one needs
        for partition, records in slices.items():
            assert store.read_map_slice(1, 0, partition) == \
                encode_records(records)
    assert tier.misses >= 3  # reloaded from the one file, not from RAM
    assert all(key.startswith(f"{store.map_segment_path(1)}#0#")
               for key in tier._entries)


@pytest.mark.parametrize("drop", ["map-output", "job", "reclaim", "sweep"])
def test_drops_evict_every_slice_entry_and_unlink_the_file(stores, tmp_path,
                                                           drop):
    """Every way an output goes away evicts exactly its slices; the ways
    a *job* goes away also close the segment's handle and unlink it, and
    a later write starts a fresh segment.  (``map-output`` is the
    one-output drop: a map output's or a piece's tombstone.)"""
    for kind in KINDS:
        tier = MemoryTier(1 << 20)
        root = tmp_path / kind.__name__
        store = stores(root, 0, chain="c0001", memory=tier)
        path = kind.path(store)
        kind.write(store, 1, seed=3)
        kind.write(store, 10, seed=4)  # "#1" prefix
        assert tier.stats()["entries"] == 2 * kind.slices
        segment = store._segments[str(path)]
        if drop == "map-output":
            kind.drop(store, 1)
            assert len(tier._entries) == kind.slices and all(  # 10 != 1*
                key.startswith(f"{path}#{kind.key(10)}#")
                for key in tier._entries)
            assert kind.read(store, 10) == kind.expected(4)
            kind.drop(store, 10)
            assert scan_segment(path) == {} and not segment.fh.closed
        else:
            if drop == "job":
                assert store.drop_job(1) > 0
            elif drop == "reclaim":
                assert kind.reclaim(store, 1) > 0
            else:
                assert store.sweep_chain(keep_reduce_jobs=()) > 0
            assert segment.fh.closed and not path.exists()
            assert store._segments == {}
        assert tier.stats()["entries"] == 0 and tier.bytes == 0
        assert kind.read(store, 1) is None
        assert kind.read(store, 10) is None
        kind.write(store, 2, seed=2)
        assert sorted(scan_segment(path)) == [kind.key(2)]
        assert kind.read(store, 2) == kind.expected(2)
        if drop != "map-output":
            assert path.stat().st_size == len(
                _section_bytes(kind, tmp_path, 2, 2))


@pytest.mark.parametrize("drop", ["job", "reclaim"])
def test_dropping_job_1_leaves_jobs_10_and_11_hot(stores, tmp_path, drop):
    """Regression: the subtree's memory-tier entries were evicted by the
    prefix ``.../job1`` — no separator — which is also a prefix of
    ``.../job10`` and ``.../job11``: dropping job 1 emptied the tier."""
    tier = MemoryTier(1 << 20)
    store = stores(tmp_path, 0, memory=tier)
    records = generate_records(8, seed=3)
    for job in (1, 10, 11):
        store.write_map_output(job, 0, None, {0: records})
        store.write_piece(job, 0, 0, 1, records)
    if drop == "job":
        store.drop_job(1)
    else:
        store.reclaim_job_sets({1}, {1})
    assert tier.stats()["entries"] == 4
    misses = tier.misses
    for job in (10, 11):
        assert store.read_map_slice(job, 0, 0) == encode_records(records)
        assert store.read_piece(job, 0, 0, 1) == encode_records(records)
    assert tier.misses == misses  # served from RAM, not reloaded
    assert _files(store) == sorted(
        name for job in (10, 11)
        for name in (f"map/job{job}.seg", f"reduce/job{job}.seg"))


# ------------------------------------------------------- checksum from bytes
CHAIN = LocalJobConfig(n_jobs=2, n_partitions=3, records_per_node=16,
                       records_per_block=8, split_ratio=2, seed=5)


def _finished_run(tmp_path):
    """A ``ChainRun`` whose registry says the chain is done (no workers:
    the test plays their part and writes the sink pieces itself)."""
    coord = Coordinator(RuntimeConfig(n_nodes=3, chain=CHAIN),
                        tmp_path / "cluster")
    return coord.chain_run, tmp_path / "cluster"


def _reduced(partition, n=30):
    """What a reducer stores: unique keys, in key order."""
    records = generate_records(n, seed=partition, value_size=14)
    return sorted({r.key: r for r in records}.values())


def test_checksum_from_bytes_equals_the_decoded_definition(stores,
                                                           tmp_path):
    run, workdir = _finished_run(tmp_path)
    # partition 0: one piece; 1: two split pieces on different nodes;
    # 2: one piece adopted from a donor chain's namespace
    for partition in range(3):
        records = _reduced(partition)
        if partition == 1:
            for split in range(2):
                part = [r for r in records if split_of(r.key, 2) == split]
                stores(workdir, split).write_piece(2, 1, split, 2, part)
                run.registry.add_piece(PieceEntry(
                    2, 1, split, 2, node=split, n_records=len(part)))
            continue
        chain = "c0007" if partition == 2 else None
        stores(workdir, partition, chain=chain).write_piece(
            2, partition, 0, 1, records)
        run.registry.add_piece(PieceEntry(
            2, partition, 0, 1, node=partition, n_records=len(records),
            chain=chain))
    output = run.final_output()
    assert output == {p: _reduced(p) for p in range(3)}
    assert run.checksum() == chain_checksum(output)
    # the bytes path is not blind: one flipped stored byte (the last
    # value byte of node 0's last piece section) shows
    path = NodeStore(workdir, 0).reduce_segment_path(2)
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))
    assert run.checksum() != chain_checksum(output)
    assert run.checksum() == chain_checksum(run.final_output())


def test_checksum_refuses_an_unfinished_chain(tmp_path):
    run, _ = _finished_run(tmp_path)
    with pytest.raises(RuntimeError, match="not completed"):
        run.checksum()
