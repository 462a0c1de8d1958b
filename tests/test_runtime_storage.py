"""The storage contract of the process runtime's data plane.

Three promises, each pinned here without starting a worker: a record
*range* decodes exactly like a slice of the full decode (and a torn
frame in or ahead of the range still raises); a map output is one
indexed file behind one fsync and one rename — all of its slices or
none, never a short one; and the final checksum hashed from stored
bytes equals the decode-sort-encode definition on every sink shape
(one piece, split pieces, a cache-adopted donor piece).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.localexec import LocalJobConfig
from repro.localexec.records import Record, generate_records, split_of
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
    read_map_index,
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
def test_partition_columns_routes_like_partition_of(records, n_partitions):
    slices = partition_columns(*decode_columns(encode_records(records)),
                               n_partitions)
    assert list(slices) == sorted(slices)  # ascending, and only non-empty
    assert slices == {
        p: (len(mine), encode_records(mine))
        for p in range(n_partitions)
        if (mine := [r for r in records if r.key % n_partitions == p])}


# --------------------------------------------------- one file per map output
def _slices(seed=3):
    records = generate_records(40, seed=seed, value_size=24)
    return {p: [r for r in records if r.key % 4 == p] for p in (0, 1, 3)}


def test_map_output_is_one_fsync_and_one_file(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd), real_fsync(fd))[1])
    store = NodeStore(tmp_path, 2)
    slices = _slices()
    counts = store.write_map_output(3, 1000007, (2, 5), slices)
    assert len(synced) == 1
    assert counts == {p: len(records) for p, records in slices.items()}
    assert [str(p.relative_to(store.dir))
            for p in store.dir.rglob("*") if p.is_file()] == \
        ["map/job3/task1000007.bin"]  # no meta.json, no per-slice file, no tmp
    for partition, records in slices.items():
        assert store.read_map_slice(3, 1000007, partition) == \
            encode_records(records)
    assert store.read_map_slice(3, 1000007, 2) == b""  # no such slice
    with open(store.map_path(3, 1000007), "rb") as fh:
        task_id, origin, slots = read_map_index(fh)
    assert (task_id, origin) == (1000007, (2, 5))
    assert {p: count for p, (_, _, count) in slots.items()} == counts


def test_map_output_index_roundtrips_no_origin_and_empty_slices(tmp_path):
    store = NodeStore(tmp_path, 0)
    assert store.write_map_output(1, 0, None, {0: [], 2: []}) == {0: 0, 2: 0}
    with open(store.map_path(1, 0), "rb") as fh:
        assert read_map_index(fh)[:2] == (0, None)
    assert store.read_map_slice(1, 0, 0) == b""
    assert store.write_map_output(1, 1, None, {}) == {}  # a block of nothing
    assert store.read_map_slice(1, 1, 0) == b""


def test_crash_between_write_and_rename_commits_nothing(tmp_path,
                                                        monkeypatch):
    store = NodeStore(tmp_path, 0, memory=MemoryTier(1 << 20))

    def crash(src, dst):
        raise KeyboardInterrupt("SIGKILL stand-in")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(KeyboardInterrupt):
        store.write_map_output(1, 4, None, _slices())
    monkeypatch.undo()
    # nothing under the committed name, nothing pinned hot: the only
    # trace is the orphan tmp the job-directory sweep removes
    assert not store.map_path(1, 4).exists()
    assert store.memory.stats()["entries"] == 0
    assert all(store.read_map_slice(1, 4, p) == b"" for p in range(4))
    assert [p.name.endswith(".tmp") for p in store.dir.rglob("*")
            if p.is_file()] == [True]
    store.drop_job(1)
    assert not list(store.dir.rglob("*.tmp"))


def test_torn_or_corrupt_map_output_raises_instead_of_serving_short(
        tmp_path):
    store = NodeStore(tmp_path, 0)
    store.write_map_output(1, 0, (1, 2), _slices())
    path = store.map_path(1, 0)
    whole = path.read_bytes()
    slot_bytes = int.from_bytes(whole[:4], "big")
    index_end = 4 + 3 * 8 + slot_bytes
    assert slot_bytes == 3 * 24  # three slices, one slot each
    for cut in (0, 2, 4, 20, index_end - 1,  # inside the index
                index_end, len(whole) - 1):  # inside the slices
        path.write_bytes(whole[:cut])
        for partition in (0, 3):
            with pytest.raises(ValueError, match="map output"):
                store.read_map_slice(1, 0, partition)
    # an index whose length field lies (slot area not a whole number of
    # slots) is corrupt, not truncated
    path.write_bytes((slot_bytes + 3).to_bytes(4, "big") + whole[4:])
    with pytest.raises(ValueError, match="corrupt map output index"):
        store.read_map_slice(1, 0, 0)
    path.write_bytes(whole)
    assert decode_records(store.read_map_slice(1, 0, 3)) == _slices()[3]


# ---------------------------------------------------------------- memory tier
def test_evicted_slice_reloads_from_the_single_file(tmp_path):
    slices = _slices()
    largest = max(len(encode_records(records))
                  for records in slices.values())
    tier = MemoryTier(largest)  # never room for all three slices
    store = NodeStore(tmp_path, 0, memory=tier)
    store.write_map_output(1, 0, None, slices)
    assert tier.stats()["entries"] < 3 and tier.spills >= 1
    for _ in range(2):  # each pass evicts what the next one needs
        for partition, records in slices.items():
            assert store.read_map_slice(1, 0, partition) == \
                encode_records(records)
    assert tier.misses >= 3  # reloaded from the one file, not from RAM
    assert all(key.startswith(f"{store.map_path(1, 0)}#")
               for key in tier._entries)


@pytest.mark.parametrize("drop", ["map-output", "job", "sweep"])
def test_drops_evict_every_slice_entry_and_unlink_the_file(tmp_path, drop):
    tier = MemoryTier(1 << 20)
    store = NodeStore(tmp_path, 0, chain="c0001", memory=tier)
    store.write_map_output(1, 0, None, _slices())
    store.write_map_output(1, 10, None, _slices(seed=4))  # "task1" prefix
    assert tier.stats()["entries"] == 6
    if drop == "map-output":
        store.drop_map_output(1, 0)
        assert store.map_path(1, 10).exists()  # task10 is not task1*
        assert sorted(tier._entries) == sorted(
            f"{store.map_path(1, 10)}#{p}" for p in (0, 1, 3))
        store.drop_map_output(1, 10)
    elif drop == "job":
        assert store.drop_job(1) > 0
    else:
        assert store.sweep_chain(keep_reduce_jobs=()) > 0
    assert tier.stats()["entries"] == 0 and tier.bytes == 0
    assert not store.map_path(1, 0).exists()
    assert not store.map_path(1, 10).exists()
    assert store.read_map_slice(1, 0, 0) == b""


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


def test_checksum_from_bytes_equals_the_decoded_definition(tmp_path):
    run, workdir = _finished_run(tmp_path)
    # partition 0: one piece; 1: two split pieces on different nodes;
    # 2: one piece adopted from a donor chain's namespace
    for partition in range(3):
        records = _reduced(partition)
        if partition == 1:
            for split in range(2):
                part = [r for r in records if split_of(r.key, 2) == split]
                NodeStore(workdir, split).write_piece(2, 1, split, 2, part)
                run.registry.add_piece(PieceEntry(
                    2, 1, split, 2, node=split, n_records=len(part)))
            continue
        chain = "c0007" if partition == 2 else None
        NodeStore(workdir, partition, chain=chain).write_piece(
            2, partition, 0, 1, records)
        run.registry.add_piece(PieceEntry(
            2, partition, 0, 1, node=partition, n_records=len(records),
            chain=chain))
    output = run.final_output()
    assert output == {p: _reduced(p) for p in range(3)}
    assert run.checksum() == chain_checksum(output)
    # the bytes path is not blind: one flipped stored byte shows
    path = NodeStore(workdir, 0).piece_path(2, 0, 0, 1)
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))
    assert run.checksum() != chain_checksum(output)
    assert run.checksum() == chain_checksum(run.final_output())


def test_checksum_refuses_an_unfinished_chain(tmp_path):
    run, _ = _finished_run(tmp_path)
    with pytest.raises(RuntimeError, match="not completed"):
        run.checksum()
