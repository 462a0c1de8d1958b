"""Tests for the in-memory tiered data plane (`MemoryTier`, zero-copy
serving, own-store reads).

The unit tests pin the tier's cache discipline (write-through, LRU
spill, prefix invalidation) and the byte-identity of every serve path
with and without the tier; the property test drives a tiny budget
through randomized writes so entries spill constantly and proves
spill→reload→serve equals never-spilled.  The tier is off by default:
the default-config tests pin that a worker then holds none of a chain's
committed bytes or input in RAM, and that a map run reads each stored
piece once.  The slow e2e tests kill a
node whose hot pieces lived in RAM and check ordinary RCMP recompute
restores the exact reference checksum — a SIGKILL may only lose what
the planner already knows how to recompute.
"""

import gc
import json
import random
import shutil
import weakref

import pytest

from repro.faults import FaultModel
from repro.localexec import LocalJobConfig
from repro.localexec.records import Record, generate_records
from repro.runtime import coordinator as coord_mod
from repro.runtime import worker as worker_mod
from repro.runtime.coordinator import RunReport, RuntimeConfig
from repro.runtime.storage import (
    ClusterRegistry,
    MemoryTier,
    NodeStore,
    PieceEntry,
    decode_records,
    encode_records,
    filter_split,
    filter_split_spans,
    piece_key,
    scan_segment,
)
from repro.runtime.transport import (
    PeerPool,
    ShuffleServer,
    serve_request,
    serve_request_spans,
)
from repro.workloads import cube_dependencies, shape_dependencies

from tests.test_runtime_process import (  # noqa: F401 - shared harness
    CHAIN,
    KillAt,
    reference_checksum,
    run_process_chain,
)
from tests.test_runtime_shuffle import (
    _dispatch_as_one_run,
    _EventSink,
    _map_commands,
)


# ------------------------------------------------------------- MemoryTier
def test_memory_tier_write_through_and_hit(stores, tmp_path):
    store = stores(tmp_path, 0, memory=MemoryTier(1 << 20))
    records = [Record(7, b"x" * 10), Record(9, b"y" * 4)]
    store.write_piece(2, 1, 0, 1, records)
    # disk tier first: a store without the tier reads it from the file
    assert NodeStore(tmp_path, 0).read_piece(2, 1, 0, 1) == \
        encode_records(records)
    # the read is served from RAM: closing and deleting the segment
    # behind the tier's back proves no disk access happens on a hit
    store.close()
    store.reduce_segment_path(2).unlink()
    assert decode_records(store.read_piece(2, 1, 0, 1)) == records
    assert store.memory.hits >= 1


def test_memory_tier_lru_spill_and_reload(stores, tmp_path):
    tier = MemoryTier(100)
    store = stores(tmp_path, 0, memory=tier)
    a = [Record(1, b"a" * 30)]  # 42 encoded bytes each (12B header)
    b = [Record(2, b"b" * 30)]
    c = [Record(3, b"c" * 30)]
    store.write_piece(1, 0, 0, 1, a)
    store.write_piece(1, 1, 0, 1, b)
    store.write_piece(1, 2, 0, 1, c)  # over budget: LRU (a) spills
    assert tier.spills >= 1
    assert tier.bytes <= tier.budget
    # the spilled piece reloads from its durable section, byte-identical
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


def test_drops_and_sweeps_evict_memory_entries(stores, tmp_path):
    tier = MemoryTier(1 << 20)
    store = stores(tmp_path, 0, memory=tier)
    store.write_map_output(1, 0, None, {0: [Record(5, b"v")]})
    store.write_piece(1, 0, 0, 1, [Record(5, b"w")])
    pinned = f"{store.reduce_segment_path(1)}#{piece_key(0, 0, 1)}#0"
    assert tier.get(pinned) == encode_records([Record(5, b"w")])
    store.drop_map_output(1, 0)
    assert tier.get(f"{store.map_segment_path(1)}#0#0") is None
    assert scan_segment(store.map_segment_path(1)) == {}
    store.drop_job(1)
    assert not store.map_segment_path(1).exists()
    assert not store.reduce_segment_path(1).exists()
    assert tier.get(pinned) is None
    assert tier.bytes == 0


def test_memory_tier_shared_across_chain_namespaces(stores, tmp_path):
    tier = MemoryTier(1 << 20)
    base = stores(tmp_path, 0, memory=tier)
    chained = base.for_chain("c1")
    assert chained.memory is tier
    chained.write_piece(1, 0, 0, 1, [Record(1, b"v")])
    base.write_piece(1, 0, 0, 1, [Record(1, b"other")])
    # segment-keyed entries never collide across namespaces
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


# --------------------------------------------------------- default config
def _default_store(root, node: int) -> NodeStore:
    """A node's store as a worker on the default config builds it."""
    budget = RuntimeConfig().worker_options()["memory_budget"]
    return NodeStore(root, node,
                     memory=MemoryTier(budget) if budget else None)


def test_a_default_replica_stays_on_disk_and_its_promoted_copy_reads_back(
        tmp_path):
    """On the default config a worker keeps no committed byte in RAM —
    a replica copy, read only after its primary is lost, least of all:
    the copy is appended and fsync'd, and when its primary dies the
    registry promotes it and it reads back byte-identical from the
    survivor's disk."""
    records = sorted(generate_records(30, seed=4, value_size=14))
    data = encode_records(records)
    primary = _default_store(tmp_path, 0)
    primary.write_piece_bytes(2, 3, 0, 1, data)
    server = ShuffleServer(primary, timeout=5.0)
    worker = worker_mod._Worker(1, _default_store(tmp_path, 1),
                                _EventSink())
    worker._ports = {0: server.port}
    try:
        assert worker.store.memory is None
        worker.dispatch({"op": "replicate", "job": 2, "partition": 3,
                         "split": 0, "n_splits": 1, "source": 0,
                         "target": 1, "source_chain": None, "epoch": 0,
                         "chain": None})
        assert [e.kind for e in worker.evt.sent] == ["replica-done"]
        assert piece_key(3, 0, 1) in scan_segment(
            worker.store.reduce_segment_path(2))
        # the primary dies: its server and its disk go with it
        server.close()
        primary.close()
        shutil.rmtree(primary.dir)
        registry = ClusterRegistry()
        registry.add_piece(PieceEntry(2, 3, 0, 1, 0, len(records)))
        registry.add_replica(2, 3, 0, 1, 1)
        registry.record_death(0, done_jobs=[2])
        [promoted] = registry.pieces[2][3]
        assert promoted.node == 1 and registry.damaged_jobs() == []
        assert NodeStore(tmp_path, promoted.node).read_piece(
            *promoted.key) == data
        assert worker.store.read_piece(*promoted.key) == data
    finally:
        server.close()
        worker.close()


def _piece_commands(pieces, rows, per_piece):
    """Job-2 map commands over ``per_piece`` consecutive ``rows``-row
    blocks of each job-1 piece (partition -> holder node) — task ids as
    ``blocks_for`` numbers them."""
    return [{"op": "map", "job": 2, "task": part * 1000 + k,
             "origin": (1, part), "n_partitions": 2,
             "source": ("piece", 1, part, 0, 1, node, k * rows, rows),
             "key": ("map", 2, part * 1000 + k), "epoch": 0, "chain": None}
            for part, node in pieces.items() for k in range(per_piece)]


def test_a_map_run_reads_each_local_piece_once(tmp_path, monkeypatch):
    """A run maps several blocks of each of two local pieces: it reads
    each piece once and commits what the same tasks commit one at a
    time."""
    rows, per_piece, pieces = 8, 3, {0: 0, 4: 0}
    records = {part: sorted(generate_records(rows * per_piece, seed=part,
                                             value_size=14))
               for part in pieces}
    reads = []
    real = NodeStore.read_piece
    monkeypatch.setattr(NodeStore, "read_piece", lambda self, *key: (
        reads.append(key), real(self, *key))[1])
    segments = {}
    for name in ("single", "run"):
        store = _default_store(tmp_path / name, 0)
        for part in pieces:
            store.write_piece(1, part, 0, 1, records[part])
        worker = worker_mod._Worker(0, store, _EventSink())
        cmds = _piece_commands(pieces, rows, per_piece)
        try:
            if name == "run":
                del reads[:]
                _dispatch_as_one_run(worker, cmds)
                assert reads == [(1, part, 0, 1) for part in pieces]
            else:
                for cmd in cmds:
                    worker.dispatch(cmd)
            assert [e.kind for e in worker.evt.sent] == \
                ["map-done"] * len(cmds)
            segments[name] = store.map_segment_path(2).read_bytes()
        finally:
            worker.close()
    assert segments["run"] == segments["single"]


def test_own_input_is_generated_once_a_run_and_not_kept(tmp_path,
                                                        monkeypatch):
    """A run of the node's own input blocks generates their rows with
    one ``generate_batch`` call and maps them where they lie (no
    concatenated copy); nothing of the input outlives the run, so a
    re-execution generates it again."""
    generated, mapped = [], []
    real_generate, real_map = worker_mod.generate_batch, worker_mod.map_batch

    def generate(n, *args, start=0, **kwargs):
        columns = real_generate(n, *args, start=start, **kwargs)
        generated.append((n, start, weakref.ref(columns[1])))
        return columns

    monkeypatch.setattr(worker_mod, "generate_batch", generate)
    monkeypatch.setattr(worker_mod, "map_batch", lambda keys, values, *rest:
                        (mapped.append(values), real_map(keys, values,
                                                         *rest))[1])
    worker = worker_mod._Worker(0, NodeStore(tmp_path, 0), _EventSink())
    cmds = _map_commands(range(8), 8)
    try:
        for _ in range(2):
            _dispatch_as_one_run(worker, [dict(cmd) for cmd in cmds[2:5]])
        assert [e.kind for e in worker.evt.sent] == ["map-done"] * 6
        assert [(n, start) for n, start, _ in generated] == [(24, 16)] * 2
        assert len(mapped) == 2 and mapped[0] is generated[0][2]()
        del mapped[:]
        gc.collect()
        assert not any(ref() is not None for _, _, ref in generated)
    finally:
        worker.close()


def test_after_a_default_chain_no_worker_holds_its_bytes(
        tmp_path, monkeypatch):
    """A chain-clean-shaped chain (3 jobs x 8 partitions, no fault) on
    the default config: at its end no worker holds a committed slice or
    piece, or the chain's input, in RAM — disk and the page cache serve
    every read."""
    monkeypatch.setattr(coord_mod, "SPECULATION_MIN_AGE", float("inf"))
    real_close = worker_mod._Worker.close

    def close(self):  # runs in the worker process, at its stop
        memory = self.store.memory
        (self.store.root / f"held{self.node}.json").write_text(json.dumps(
            {"tier": 0 if memory is None else memory.bytes,
             "input": hasattr(self, "_inputs")}))
        real_close(self)

    monkeypatch.setattr(worker_mod._Worker, "close", close)
    chain = LocalJobConfig(n_jobs=3, n_partitions=8, records_per_node=256,
                           records_per_block=64, value_size=64, seed=2)
    report = run_process_chain(tmp_path, chain=chain)
    assert report.checksum == reference_checksum(chain)
    for node in range(4):
        assert json.loads((tmp_path / "cluster" / f"held{node}.json")
                          .read_text()) == {"tier": 0, "input": False}


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


def test_write_atomic_leaves_no_tmp_litter(stores, tmp_path):
    """A piece is a section appended to its job's reduce segment: no
    temp file, no per-partition directory, nothing but the segment."""
    store = stores(tmp_path, 0)
    store.write_piece(1, 0, 0, 1, [Record(1, b"v")])
    store.write_piece(1, 3, 1, 2, [Record(2, b"w")])
    assert sorted(str(p.relative_to(store.dir))
                  for p in store.dir.rglob("*")) == ["reduce",
                                                     "reduce/job1.seg"]


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
def test_fewer_nodes_shift_bytes_off_tcp(tmp_path):
    """The same logical chain on 2 nodes instead of 4 must move shuffle
    bytes from sockets to the local plane: strictly lower TCP, strictly
    higher local."""
    chain = LocalJobConfig(n_jobs=2, n_partitions=4, records_per_node=48,
                           records_per_block=16, seed=3)
    spread = run_process_chain(tmp_path / "spread", chain=chain,
                               n_nodes=4)
    packed_chain = LocalJobConfig(n_jobs=2, n_partitions=4,
                                  records_per_node=96,
                                  records_per_block=16, seed=3)
    packed = run_process_chain(tmp_path / "packed", chain=packed_chain,
                               n_nodes=2)
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


# ------------------------------------------------------------ tier matrix
_TIER_BASE = dict(n_partitions=4, records_per_node=128, records_per_block=16,
                  value_size=32, split_ratio=2, seed=0)
#: shape -> (chain, kill schedule -> fault plan)
TIER_SHAPES = {
    "linear": (LocalJobConfig(n_jobs=3, **_TIER_BASE),
               {"single": "kill@job2+0:node=1",
                "double": "kill@job2+0:node=1; kill@job3+0:node=2"}),
    "diamond": (LocalJobConfig(n_jobs=4, **_TIER_BASE,
                               dependencies=shape_dependencies("diamond")),
                {"single": "kill@job2+0:node=1",
                 "double": "kill@job2+0:node=1; kill@job4+0:node=2"}),
    "cube3": (LocalJobConfig(n_jobs=8, **_TIER_BASE,
                             dependencies=cube_dependencies(3)),
              {"single": "kill@job5+0:node=1",
               "double": "kill@job2+0:node=1; kill@job8+0:node=2"}),
}


@pytest.mark.slow
@pytest.mark.parametrize("budget", [0, 64 << 20, 4096],
                         ids=["off", "on", "tiny"])
@pytest.mark.parametrize("schedule", ["none", "single", "double"])
@pytest.mark.parametrize("strategy", ["rcmp", "optimistic", "repl2",
                                      "hybrid"])
@pytest.mark.parametrize("shape", list(TIER_SHAPES))
def test_tier_matrix(tmp_path, shape, strategy, schedule, budget):
    """The differential checksum matrix under the memory tier off, on,
    and at a 4 KiB budget that spills on every commit: every cell must
    reproduce the failure-free in-process checksum, see exactly the
    scheduled deaths, and — for RCMP under a kill — really recompute."""
    chain, plans = TIER_SHAPES[shape]
    plan = plans.get(schedule, "")
    report = run_process_chain(
        tmp_path, chain=chain, strategy=strategy, memory_budget=budget,
        fault_model=FaultModel.parse(plan) if plan else None)
    assert report.checksum == reference_checksum(chain)
    assert len(report.deaths) == plan.count("kill@")
    if strategy == "rcmp" and plan:
        assert "recompute" in [kind for _, kind, _ in report.job_times]
