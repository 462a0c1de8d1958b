"""Tests for the in-memory tiered data plane (`MemoryTier`, zero-copy
serving, own-store reads).

The unit tests pin the tier's cache discipline (write-through, LRU
spill, prefix invalidation) and the byte-identity of every serve path
with and without the tier; the property test drives a tiny budget
through randomized writes so entries spill constantly and proves
spill→reload→serve equals never-spilled.  The slow e2e tests kill a
node whose hot pieces lived in RAM and check ordinary RCMP recompute
restores the exact reference checksum — a SIGKILL may only lose what
the planner already knows how to recompute.
"""

import random

import pytest

from repro.localexec import LocalJobConfig
from repro.localexec.records import Record, generate_records
from repro.runtime.coordinator import RunReport, RuntimeConfig
from repro.runtime.storage import (
    MemoryTier,
    NodeStore,
    decode_records,
    encode_records,
    filter_split,
    filter_split_spans,
    scan_map_segment,
)
from repro.runtime.transport import (
    PeerPool,
    ShuffleServer,
    serve_request,
    serve_request_spans,
)

from tests.test_runtime_process import (  # noqa: F401 - shared harness
    CHAIN,
    KillAt,
    reference_checksum,
    run_process_chain,
)


# ------------------------------------------------------------- MemoryTier
def test_memory_tier_write_through_and_hit(tmp_path):
    store = NodeStore(tmp_path, 0, memory=MemoryTier(1 << 20))
    records = [Record(7, b"x" * 10), Record(9, b"y" * 4)]
    store.write_piece(2, 1, 0, 1, records)
    path = store.piece_path(2, 1, 0, 1)
    assert path.read_bytes() == encode_records(records)  # disk tier first
    # the read is served from RAM: deleting the file behind the tier's
    # back proves no disk access happens on a hit
    path.unlink()
    assert decode_records(store.read_piece(2, 1, 0, 1)) == records
    assert store.memory.hits >= 1


def test_memory_tier_lru_spill_and_reload(tmp_path):
    tier = MemoryTier(100)
    store = NodeStore(tmp_path, 0, memory=tier)
    a = [Record(1, b"a" * 30)]  # 42 encoded bytes each (12B header)
    b = [Record(2, b"b" * 30)]
    c = [Record(3, b"c" * 30)]
    store.write_piece(1, 0, 0, 1, a)
    store.write_piece(1, 1, 0, 1, b)
    store.write_piece(1, 2, 0, 1, c)  # over budget: LRU (a) spills
    assert tier.spills >= 1
    assert tier.bytes <= tier.budget
    # the spilled piece reloads from its durable file, byte-identical
    assert decode_records(store.read_piece(1, 0, 0, 1)) == a


def test_memory_tier_oversized_object_not_admitted():
    tier = MemoryTier(10)
    tier.put("k", b"z" * 64)
    assert tier.get("k") is None
    assert tier.bytes == 0


def test_memory_tier_invalidate_prefix():
    tier = MemoryTier(1 << 20)
    tier.put("/root/map/job1/a", b"1")
    tier.put("/root/map/job1/b", b"22")
    tier.put("/root/map/job2/a", b"333")
    assert tier.invalidate_prefix("/root/map/job1") == 2
    assert tier.get("/root/map/job1/a") is None
    assert tier.get("/root/map/job2/a") == b"333"
    assert tier.bytes == 3


def test_drops_and_sweeps_evict_memory_entries(tmp_path):
    tier = MemoryTier(1 << 20)
    store = NodeStore(tmp_path, 0, memory=tier)
    store.write_map_output(1, 0, None, {0: [Record(5, b"v")]})
    store.write_piece(1, 0, 0, 1, [Record(5, b"w")])
    store.drop_map_output(1, 0)
    assert tier.get(f"{store.map_segment_path(1)}#0#0") is None
    assert scan_map_segment(store.map_segment_path(1)) == {}
    store.drop_job(1)
    assert not store.map_segment_path(1).exists()
    assert tier.get(str(store.piece_path(1, 0, 0, 1))) is None
    assert tier.bytes == 0


def test_memory_tier_shared_across_chain_namespaces(tmp_path):
    tier = MemoryTier(1 << 20)
    base = NodeStore(tmp_path, 0, memory=tier)
    chained = base.for_chain("c1")
    assert chained.memory is tier
    chained.write_piece(1, 0, 0, 1, [Record(1, b"v")])
    base.write_piece(1, 0, 0, 1, [Record(1, b"other")])
    # path-keyed entries never collide across namespaces
    assert decode_records(chained.read_piece(1, 0, 0, 1)) == \
        [Record(1, b"v")]
    assert decode_records(base.read_piece(1, 0, 0, 1)) == \
        [Record(1, b"other")]


def test_spill_reload_serve_property(stores, tmp_path):
    """Property: under a tiny budget forcing constant spill, every read
    path returns bytes identical to a never-spilled (unbounded) store
    and to a tier-less store."""
    rng = random.Random(42)
    tiny = stores(tmp_path / "tiny", 0, memory=MemoryTier(256))
    big = stores(tmp_path / "big", 0, memory=MemoryTier(1 << 24))
    bare = stores(tmp_path / "bare", 0)
    writes = []
    for i in range(40):
        records = [Record(rng.getrandbits(48), bytes([rng.getrandbits(8)])
                          * rng.randrange(0, 40))
                   for _ in range(rng.randrange(1, 8))]
        if rng.random() < 0.5:
            job, task, part = rng.randrange(1, 3), i, rng.randrange(2)
            for s in (tiny, big, bare):
                s.write_map_output(job, task, None, {part: records})
            writes.append(("map", job, task, part))
        else:
            job, part = rng.randrange(1, 3), rng.randrange(2)
            for s in (tiny, big, bare):
                s.write_piece(job, part, 0, 1, records)
            writes.append(("piece", job, part))
    assert tiny.memory.spills > 0, "budget not tiny enough to spill"
    for access in rng.sample(writes, len(writes)):
        if access[0] == "map":
            _, job, task, part = access
            got = [s.read_map_slice(job, task, part)
                   for s in (tiny, big, bare)]
            request = {"kind": "maps", "job": job, "tasks": [task],
                       "partition": part, "split": 0, "n_splits": 2}
        else:
            _, job, part = access
            got = [s.read_piece(job, part, 0, 1) for s in (tiny, big, bare)]
            request = {"kind": "piece", "job": job, "partition": part,
                       "split": 0, "n_splits": 1}
        assert got[0] == got[1] == got[2]
        served = [serve_request(s, request) for s in (tiny, big, bare)]
        assert served[0] == served[1] == served[2]


# ------------------------------------------------- zero-copy codec/serving
def test_encode_records_matches_reference_join():
    rng = random.Random(7)
    records = [Record(rng.getrandbits(60),
                      bytes(rng.getrandbits(8) for _ in
                            range(rng.randrange(0, 50))))
               for _ in range(200)]
    reference = b"".join(
        int.to_bytes(r.key, 8, "big") + int.to_bytes(len(r.value), 4, "big")
        + r.value for r in records)
    assert encode_records(records) == reference
    assert encode_records([]) == b""
    assert encode_records(iter(records)) == reference  # any iterable


def test_filter_split_spans_join_equals_filter_split():
    records = [Record(k, bytes([k % 251]) * (k % 17)) for k in range(300)]
    data = encode_records(records)
    for n_splits in (1, 2, 3):
        whole = b""
        for split in range(n_splits):
            spans = filter_split_spans(data, split, n_splits)
            joined = b"".join(spans)
            assert joined == filter_split(data, split, n_splits)
            whole += joined
        assert sorted(decode_records(whole)) == sorted(records)


def test_filter_split_accepts_memoryview():
    records = [Record(k, b"v" * k) for k in range(20)]
    data = encode_records(records)
    assert filter_split(memoryview(data), 1, 2) == filter_split(data, 1, 2)


def test_serve_request_spans_join_equals_serve_request(stores, tmp_path):
    store = stores(tmp_path, 0, memory=MemoryTier(1 << 20))
    for task in range(3):
        store.write_map_output(
            1, task, None, {0: [Record(task * 10 + i, b"m" * i)
                                for i in range(6)]})
    for request in (
            {"kind": "maps", "job": 1, "tasks": [0, 1, 2], "partition": 0},
            {"kind": "maps", "job": 1, "tasks": [0, 1, 2], "partition": 0,
             "split": 1, "n_splits": 2},
            {"kind": "maps", "job": 1, "tasks": [5], "partition": 0}):
        spans = serve_request_spans(store, request)
        assert b"".join(spans) == serve_request(store, request)


def test_shuffle_server_sendmsg_path_roundtrip(stores, tmp_path):
    """The scatter-gather serve path must put byte-identical payloads on
    the wire, including many-span split responses."""
    store = stores(tmp_path, 0, memory=MemoryTier(1 << 20))
    for task in range(4):
        store.write_map_output(
            2, task, None,
            {1: [Record(task * 100 + i, b"x" * (i % 23))
                 for i in range(50)]})
    server = ShuffleServer(store, timeout=5.0)
    pool = PeerPool(timeout=5.0)
    try:
        for request in (
                {"kind": "maps", "job": 2, "tasks": [0, 1, 2, 3],
                 "partition": 1},
                {"kind": "maps", "job": 2, "tasks": [0, 1, 2, 3],
                 "partition": 1, "split": 0, "n_splits": 3}):
            assert pool.fetch(server.port, request) == \
                serve_request(store, request)
    finally:
        pool.close()
        server.close()


def test_write_atomic_leaves_no_tmp_litter(tmp_path):
    store = NodeStore(tmp_path, 0)
    store.write_piece(1, 0, 0, 1, [Record(1, b"v")])
    leftovers = [p for p in (tmp_path / "node000").rglob("*.tmp")]
    assert leftovers == []


# ----------------------------------------------------------- accounting
def test_run_report_splits_tcp_and_local_totals():
    report = RunReport(checksum="x",
                       shuffle_bytes={"reduce-1": 100, "reduce-2": 50},
                       shuffle_bytes_local={"reduce-1": 30})
    assert report.total_shuffle_bytes_tcp == 150
    assert report.total_shuffle_bytes_local == 30
    assert report.total_shuffle_bytes == 180
    assert report.shuffle_bytes_tcp is report.shuffle_bytes
    payload = report.to_dict()
    assert payload["shuffle_bytes_local"] == {"reduce-1": 30}
    assert "local 30B" in report.render()


def test_config_validates_memory_budget():
    with pytest.raises(ValueError):
        RuntimeConfig(memory_budget=-1)
    with pytest.raises(ValueError):
        RuntimeConfig(memory_budget=1.5)
    assert RuntimeConfig(memory_budget=0).worker_options()[
        "memory_budget"] == 0
    assert RuntimeConfig(memory_budget=1 << 20).worker_options()[
        "memory_budget"] == 1 << 20


# ------------------------------------------------------------ slow e2e
@pytest.mark.slow
def test_kill_node_with_hot_memory_pieces_recovers_exact(tmp_path):
    """Kill a node whose committed pieces were memory-hot (unbounded
    tier): its RAM dies with it, recompute from the surviving disk tier
    must restore the exact reference checksum."""
    hook = KillAt("job-start", 3, victims=[1])
    report = run_process_chain(tmp_path, hooks=hook,
                               memory_budget=1 << 24)
    assert report.checksum == reference_checksum(CHAIN)
    assert len(report.deaths) == 1


@pytest.mark.slow
def test_tiny_budget_constant_spill_kill_recovers_exact(tmp_path):
    """A 4 KiB budget spills essentially every write; recovery under
    constant spilling must stay byte-identical too."""
    hook = KillAt("job-start", 2, victims=[2])
    report = run_process_chain(tmp_path, hooks=hook, memory_budget=4096)
    assert report.checksum == reference_checksum(CHAIN)


@pytest.mark.slow
def test_memory_tier_off_matches_reference(tmp_path):
    report = run_process_chain(tmp_path, memory_budget=0)
    assert report.checksum == reference_checksum(CHAIN)
    assert report.total_shuffle_bytes_local > 0  # local reads counted


@pytest.mark.slow
def test_colocated_slots_shift_bytes_off_tcp(tmp_path):
    """The same logical chain on fewer nodes x more slots must move
    shuffle bytes from sockets to the local plane: strictly lower TCP,
    strictly higher local."""
    chain = LocalJobConfig(n_jobs=2, n_partitions=4, records_per_node=48,
                           records_per_block=16, seed=3)
    spread = run_process_chain(tmp_path / "spread", chain=chain,
                               n_nodes=4, task_slots=1)
    packed_chain = LocalJobConfig(n_jobs=2, n_partitions=4,
                                  records_per_node=96,
                                  records_per_block=16, seed=3)
    packed = run_process_chain(tmp_path / "packed", chain=packed_chain,
                               n_nodes=2, task_slots=2)
    assert packed.total_shuffle_bytes_tcp < spread.total_shuffle_bytes_tcp
    assert packed.total_shuffle_bytes_local > \
        spread.total_shuffle_bytes_local


@pytest.mark.slow
def test_generate_records_inputs_do_not_hit_the_shuffle(tmp_path):
    """Job-1 inputs are regenerated, never shuffled: a 1-job chain's
    local counter only sees reduce-phase slices."""
    chain = LocalJobConfig(n_jobs=1, n_partitions=2, records_per_node=32,
                           records_per_block=16, seed=1)
    records = generate_records(4, seed=1000, value_size=32)
    assert len(records) == 4  # harness sanity
    report = run_process_chain(tmp_path, chain=chain, n_nodes=2)
    assert report.checksum == reference_checksum(chain, n_nodes=2)
    for phase in report.shuffle_bytes_local:
        assert "reduce" in phase or "replica" in phase
