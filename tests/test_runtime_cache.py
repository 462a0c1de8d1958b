"""Tests for the cross-run result cache.

Fast tests pin down the pure pieces — fingerprint identity, the
contiguous-prefix rule, registry admission/adoption/eviction/persistence
over synthetic files, and the close-time namespace sweep.  The ``slow``
marker guards the end-to-end service scenarios: full-chain and prefix
hits, the no-cache opt-out, LRU eviction under a tiny budget, restart
rescan, and the headline differential proof — a kill during the cached
prefix forces RCMP recovery to recompute adopted pieces and the final
checksum stays byte-identical to a cold run.
"""

import functools
import inspect
import json
import logging
import time

import pytest

from repro.localexec import LocalCluster, LocalJobConfig
from repro.localexec.records import Record
from repro.runtime import cache as cache_mod
from repro.runtime.cache import (
    CacheRegistry,
    chain_fingerprints,
    scan_chain_sequence,
    udf_identity,
)
from repro.runtime.coordinator import RuntimeConfig
from repro.runtime.recovery import JobGraph, adoptable_closure
from repro.runtime.service import ChainService
from repro.runtime.storage import (
    FRAME_HEADER,
    ClusterRegistry,
    NodeStore,
    PieceEntry,
    chain_checksum,
    encode_records,
)

CHAIN3 = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                        records_per_block=16, seed=0)
CHAIN5 = LocalJobConfig(n_jobs=5, n_partitions=4, records_per_node=48,
                        records_per_block=16, seed=0)


@functools.lru_cache(maxsize=None)
def reference_checksum(chain: LocalJobConfig, n_nodes: int = 4) -> str:
    cluster = LocalCluster(n_nodes, chain)
    for job in range(1, chain.n_jobs + 1):
        cluster.run_job(job)
    return chain_checksum(cluster.final_output())


def _config(chain=CHAIN3, **kw) -> RuntimeConfig:
    return RuntimeConfig(n_nodes=4, chain=chain, **kw)


# ------------------------------------------------------------ fingerprints
def test_fingerprints_one_per_job_and_position_dependent():
    fps = chain_fingerprints(CHAIN3, n_nodes=4)
    assert len(fps) == 3
    assert len(set(fps)) == 3  # position changes the hash


def test_fingerprint_prefix_shared_across_chain_lengths():
    """The whole point: a 5-job chain's first three fingerprints equal
    the 3-job chain's — overlapping submissions share cache entries."""
    assert chain_fingerprints(CHAIN5, 4)[:3] == chain_fingerprints(CHAIN3, 4)


@pytest.mark.parametrize("field, value", [
    ("seed", 7),
    ("records_per_node", 64),
    ("value_size", 32),
    ("n_partitions", 2),
])
def test_fingerprints_track_input_identity(field, value):
    import dataclasses
    other = dataclasses.replace(CHAIN3, **{field: value})
    assert chain_fingerprints(other, 4) != chain_fingerprints(CHAIN3, 4)


def test_fingerprints_track_node_count_but_not_blocking():
    """n_nodes changes the generated input (one seed per node); block
    size and split ratio only change piece boundaries, which the
    canonical per-partition output is invariant to."""
    import dataclasses
    assert chain_fingerprints(CHAIN3, 5) != chain_fingerprints(CHAIN3, 4)
    reblocked = dataclasses.replace(CHAIN3, records_per_block=8)
    resplit = dataclasses.replace(CHAIN3, split_ratio=2)
    assert chain_fingerprints(reblocked, 4) == chain_fingerprints(CHAIN3, 4)
    assert chain_fingerprints(resplit, 4) == chain_fingerprints(CHAIN3, 4)


def test_udf_identity_is_stable():
    assert udf_identity() == udf_identity()


def test_udf_source_is_read_once_not_per_fingerprint(monkeypatch):
    """``getsource`` re-reads the source file: hashing it on every
    ``chain_fingerprints`` call (twice per served chain) cost ~14 ms and
    fingerprinted the file on disk rather than the code loaded."""
    calls = []

    def counted(fn):
        calls.append(fn)
        return real(fn)

    real = inspect.getsource
    monkeypatch.setattr(cache_mod.inspect, "getsource", counted)
    first = chain_fingerprints(CHAIN3, 4)
    assert chain_fingerprints(CHAIN5, 4)[:3] == first
    assert len(calls) <= 19  # each UDF's source at most once, not twice


@pytest.mark.parametrize("name", ["generate_batch", "map_batch",
                                  "reduce_batch", "map_udf", "_digests",
                                  "_be_column", "_be_bytes", "_rows",
                                  "md5.md5_rows", "md5.md5_text",
                                  "md5._place", "md5._digit_words",
                                  "md5._digit_counts", "md5._compress",
                                  "md5._digest_chunks", "md5._columns"])
def test_fingerprints_follow_the_udfs_that_run(monkeypatch, name):
    """The workers execute the batch UDFs, so an edit to one of them —
    like an edit to its per-record definition, or to the column helpers,
    digest helper and MD5 kernel they share — must miss the cache."""
    before = chain_fingerprints(CHAIN3, 4)

    def edited(*args):
        """Same name, different source text."""

    target = name if "." in name else f"records.{name}"
    monkeypatch.setattr(f"repro.localexec.{target}", edited)
    after = chain_fingerprints(CHAIN3, 4)
    assert all(a != b for a, b in zip(before, after))


DIAMOND4 = LocalJobConfig(n_jobs=4, n_partitions=4, records_per_node=48,
                          records_per_block=16, seed=0,
                          dependencies=((), (1,), (1,), (2, 3)))


def test_fingerprints_include_dependency_structure():
    """Job 3 of a diamond reads job 1; job 3 of a linear chain reads
    job 2.  Same knobs, different lineage — the fingerprints must
    diverge exactly where the parent sets do."""
    linear = LocalJobConfig(n_jobs=4, n_partitions=4, records_per_node=48,
                            records_per_block=16, seed=0)
    lin = chain_fingerprints(linear, 4)
    dag = chain_fingerprints(DIAMOND4, 4)
    assert dag[0] == lin[0] and dag[1] == lin[1]  # identical lineage
    assert dag[2] != lin[2] and dag[3] != lin[3]


def test_multi_parent_fingerprint_is_parent_order_invariant():
    """A join's output is the reduce over the union of its parents'
    records — listing the parents in another order is the same
    computation and must share the cache entry."""
    import dataclasses
    swapped = dataclasses.replace(
        DIAMOND4, dependencies=((), (1,), (1,), (3, 2)))
    assert chain_fingerprints(swapped, 4)[3] == \
        chain_fingerprints(DIAMOND4, 4)[3]


def test_linear_fingerprint_scheme_is_byte_stable():
    """Byte-compat pin: on a linear chain the DAG-aware hash must equal
    the historical ``fp[j] = md5("job:j:" + fp[j-1])`` chain, so cache
    state persisted by older services stays valid."""
    import hashlib

    identity = json.dumps({
        "seed": CHAIN3.seed,
        "records_per_node": CHAIN3.records_per_node,
        "value_size": CHAIN3.value_size,
        "n_nodes": 4,
        "n_partitions": CHAIN3.n_partitions,
        "udf": udf_identity(),
    }, sort_keys=True).encode()
    digest = hashlib.md5(b"chain-input:" + identity).hexdigest()
    legacy = []
    for job in range(1, CHAIN3.n_jobs + 1):
        digest = hashlib.md5(f"job:{job}:{digest}".encode()).hexdigest()
        legacy.append(digest)
    assert chain_fingerprints(CHAIN3, 4) == legacy


def test_adoptable_prefix_contiguity():
    """On a chain the adoptable closure is the contiguous prefix."""
    chain = JobGraph.linear(5)
    assert adoptable_closure([], chain) == set()
    assert adoptable_closure([1, 2, 3], chain) == {1, 2, 3}
    assert adoptable_closure([1, 3], chain) == {1}    # gap truncates
    assert adoptable_closure([2, 3], chain) == set()  # missing job 1
    assert adoptable_closure([3, 1, 2, 5], chain) == {1, 2, 3}


# -------------------------------------------------------- registry (unit)
def _payload(fill: bytes, size: int) -> bytes:
    """One framed record, ``size`` bytes encoded."""
    return encode_records([Record(0, fill * (size - FRAME_HEADER))])


def _seed_chain_files(root, chain_id: str, jobs, n_partitions: int = 2,
                      payload: bytes = _payload(b"x", 64)
                      ) -> ClusterRegistry:
    """Write synthetic pieces for ``jobs`` under ``chain_id``'s namespace
    (partition p on node p) and return a matching registry."""
    registry = ClusterRegistry()
    for job in jobs:
        for partition in range(n_partitions):
            store = NodeStore(root, partition, chain=chain_id)
            store.write_piece_bytes(job, partition, 0, 1, payload)
            store.close()
            registry.add_piece(PieceEntry(job, partition, 0, 1,
                                          partition, 1))
    return registry


def _segment(root, node: int, chain: str, job: int):
    return NodeStore(root, node, chain=chain).reduce_segment_path(job)


def test_registry_admit_adopt_roundtrip(tmp_path):
    fps = ["fp-a", "fp-b", "fp-c"]
    registry = _seed_chain_files(tmp_path, "c0001", jobs=[1, 2, 3])
    cache = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    assert cache.admit(fps, "c0001", registry) == 3
    adopted = cache.adopt(fps, "c0002")
    assert [e.job for e in adopted] == [1, 2, 3]
    assert all(p.chain == "c0001" for e in adopted for p in e.pieces)
    assert cache.hits == 3 and cache.misses == 0
    assert cache.kept_jobs("c0001") == {1, 2, 3}
    assert cache.kept_jobs("c0002") == set()


def test_registry_adopt_stops_at_gap_and_counts_misses(tmp_path):
    registry = _seed_chain_files(tmp_path, "c0001", jobs=[1, 3])
    cache = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    # job 2 has no surviving pieces, so only fp-a and fp-c are admitted
    assert cache.admit(["fp-a", "fp-b", "fp-c"], "c0001", registry) == 2
    # the new chain wants all three: job 2 is uncached, so adoption
    # must stop at job 1 even though job 3 is resident
    adopted = cache.adopt(["fp-a", "fp-b", "fp-c"], "c0002")
    assert [e.job for e in adopted] == [1]
    assert cache.hits == 1 and cache.misses == 2


def test_registry_admit_skips_incomplete_coverage(tmp_path):
    """A hybrid-reclaimed job has no registry coverage left — admission
    must skip it rather than cache dangling paths."""
    registry = _seed_chain_files(tmp_path, "c0001", jobs=[2])
    cache = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    assert cache.admit(["fp-a", "fp-b"], "c0001", registry) == 1
    assert {e.job for e in cache.entries.values()} == {2}


def test_registry_persistence_and_disk_rescan(tmp_path):
    fps = ["fp-a", "fp-b"]
    registry = _seed_chain_files(tmp_path, "c0001", jobs=[1, 2])
    cache = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    cache.admit(fps, "c0001", registry)

    reloaded = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    assert reloaded.load() == 2
    assert reloaded.adopt(fps, "c0002") and reloaded.hits == 2

    # cut one of job 2's pieces short out-of-band: the rescan must drop
    # the entry (and only it), and unlink its segments
    victim = _segment(tmp_path, 0, "c0001", 2)
    victim.write_bytes(victim.read_bytes()[:-1])
    rescanned = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    assert rescanned.load() == 1
    assert [e.job for e in rescanned.adopt(fps, "c0003")] == [1]
    assert not _segment(tmp_path, 1, "c0001", 2).exists()
    assert _segment(tmp_path, 1, "c0001", 1).exists()


def test_registry_of_another_format_loads_empty(tmp_path, caplog):
    """Version 1 rows point at one ``.bin`` file per piece: a registry
    of another version is not trusted, whatever its rows say."""
    registry = _seed_chain_files(tmp_path, "c0001", jobs=[1])
    CacheRegistry(tmp_path, budget_bytes=1 << 20).admit(
        ["fp-a"], "c0001", registry)
    path = tmp_path / "cache_registry.json"
    state = json.loads(path.read_text())
    assert state["version"] == 2 and state["entries"]
    path.write_text(json.dumps({**state, "version": 1}))
    reloaded = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    with caplog.at_level(logging.WARNING, logger=cache_mod.__name__):
        assert reloaded.load() == 0
    assert "format version 1" in caplog.text
    assert reloaded.adopt(["fp-a"], "c0002") == []


def test_registry_lru_eviction_unlinks_files(tmp_path):
    payload = _payload(b"y", 100)
    registry = _seed_chain_files(tmp_path, "c0001", jobs=[1, 2, 3],
                                 payload=payload)
    # room for two entries of 200B each
    cache = CacheRegistry(tmp_path, budget_bytes=450)
    cache.admit(["fp-a", "fp-b", "fp-c"], "c0001", registry)
    assert cache.evictions == 1
    survivors = {e.job for e in cache.entries.values()}
    assert survivors == {2, 3}  # oldest-admitted (job 1) evicted first
    assert not _segment(tmp_path, 0, "c0001", 1).exists()
    # the eviction is persisted
    reloaded = CacheRegistry(tmp_path, budget_bytes=450)
    assert reloaded.load() == 2


def test_registry_eviction_never_touches_pinned_entries(tmp_path):
    payload = _payload(b"z", 100)
    registry = _seed_chain_files(tmp_path, "cA", jobs=[1], payload=payload)
    cache = CacheRegistry(tmp_path, budget_bytes=250)
    cache.admit(["fp-a"], "cA", registry)
    assert cache.adopt(["fp-a"], "cB")  # pins fp-a
    registry2 = _seed_chain_files(tmp_path, "cC", jobs=[2],
                                  payload=payload)
    cache.admit(["fp-a", "fp-c"], "cC", registry2)
    # over budget, but the pinned entry survives; its files are intact
    assert "fp-a" in cache.entries
    assert _segment(tmp_path, 0, "cA", 1).exists()
    cache.release("cB")
    # unpinned now: the next admission pass may evict it
    cache.admit(["fp-a", "fp-c"], "cC", registry2)
    assert cache.total_bytes <= 250


def test_registry_death_dooms_pinned_drops_unpinned(tmp_path):
    registry = _seed_chain_files(tmp_path, "cA", jobs=[1, 2])
    cache = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    cache.admit(["fp-a", "fp-b"], "cA", registry)
    cache.adopt(["fp-a"], "cB")           # pin job 1 only
    assert cache.on_death(0) == 2         # node 0 held a piece of both
    assert not cache.entries
    # unpinned job 2: its surviving node-1 segment is gone immediately
    assert not _segment(tmp_path, 1, "cA", 2).exists()
    # pinned job 1: survivors stay on disk until the adopter releases
    pinned_file = _segment(tmp_path, 1, "cA", 1)
    assert pinned_file.exists()
    cache.release("cB")
    assert not pinned_file.exists()


def test_adopt_takes_dependency_closure_on_a_dag(tmp_path):
    """With the diamond's graph, a resident {1, 3} adopts both — the
    cached branch survives the missing sibling; the linear default
    would stop at the job-2 gap."""
    fps = ["fp-a", "fp-b", "fp-c", "fp-d"]
    registry = _seed_chain_files(tmp_path, "c0001", jobs=[1, 3])
    cache = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    assert cache.admit(fps, "c0001", registry) == 2
    graph = JobGraph(((), (1,), (1,), (2, 3)))
    adopted = cache.adopt(fps, "c0002", graph=graph)
    assert sorted(e.job for e in adopted) == [1, 3]
    assert cache.hits == 2 and cache.misses == 2
    # the same residency under the linear default stops at the gap
    assert [e.job for e in cache.adopt(fps, "c0003")] == [1]


def test_invalidation_prunes_only_the_entry_namespace(tmp_path):
    """Unlinking an invalidated entry prunes the empty dirs it leaves —
    up to its own chain namespace and no further (regression: a fixed
    parent count could walk past the namespace root and delete node
    state the cache never owned)."""
    registry = _seed_chain_files(tmp_path, "cA", jobs=[1])
    _seed_chain_files(tmp_path, "cB", jobs=[1])
    cache = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    cache.admit(["fp-a"], "cA", registry)
    # one segment vanishes out-of-band: adoption invalidates the entry
    # and unlinks its survivor, pruning cA's now-empty namespace dirs
    _segment(tmp_path, 0, "cA", 1).unlink()
    assert cache.adopt(["fp-a"], "cC") == []
    assert cache.stats()["invalidated"] == 1
    for node in (tmp_path / "node000", tmp_path / "node001"):
        assert not (node / "chains" / "cA").exists()
        assert (node / "chains" / "cB").is_dir()  # sibling untouched
        assert node.is_dir()                      # node root survives


def test_rescan_counts_and_persists_dropped_entries(tmp_path):
    registry = _seed_chain_files(tmp_path, "c0001", jobs=[1, 2])
    cache = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    cache.admit(["fp-a", "fp-b"], "c0001", registry)
    assert cache.stats()["rescan_invalidated"] == 0

    # a tombstone hides one of job 2's pieces: its section is gone
    store = NodeStore(tmp_path, 0, chain="c0001")
    assert store.drop_piece(2, 0, 0, 1) == 64
    store.close()
    rescanned = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    assert rescanned.load() == 1
    stats = rescanned.stats()
    assert stats["rescan_invalidated"] == 1
    assert stats["invalidated"] == 1  # rescan drops are a subset

    # a clean restart carries the counter forward instead of resetting
    again = CacheRegistry(tmp_path, budget_bytes=1 << 20)
    assert again.load() == 1
    assert again.stats()["rescan_invalidated"] == 1


def test_scan_chain_sequence(tmp_path):
    assert scan_chain_sequence(tmp_path) == 0
    for node, cid in ((0, "c0002"), (1, "c0017"), (0, "weird")):
        (tmp_path / f"node{node:03d}" / "chains" / cid).mkdir(parents=True)
    assert scan_chain_sequence(tmp_path) == 17


def test_sweep_chain_keeps_only_cached_reduce_jobs(tmp_path):
    store = NodeStore(tmp_path, 0, chain="c0001")
    store.write_map_output(1, 0, None, {0: []})
    store.write_piece(1, 0, 0, 1, [Record(1, b"one")])
    store.write_piece(2, 0, 0, 1, [Record(2, b"two")])
    store.write_piece(20, 0, 0, 1, [Record(20, b"twenty")])
    freed = store.sweep_chain(keep_reduce_jobs={2})
    assert freed > 0
    assert not (store.dir / "map").exists()
    assert sorted(p.name for p in store.dir.rglob("*")) == [
        "job2.seg", "reduce"]  # job 20 is not job 2
    assert store._segments == {}  # every handle closed
    assert NodeStore(tmp_path, 0, chain="c0001").read_piece(
        2, 0, 0, 1) == encode_records([Record(2, b"two")])
    # nothing kept: the namespace dir itself goes away
    other = NodeStore(tmp_path, 1, chain="c0009")
    other.write_piece(1, 0, 0, 1, [Record(1, b"gone")])
    other.sweep_chain(keep_reduce_jobs=())
    assert not other.dir.exists()


def test_sweep_chain_rejects_unnamespaced_store(tmp_path):
    with pytest.raises(ValueError, match="chain namespaces"):
        NodeStore(tmp_path, 0).sweep_chain(())


# ------------------------------------------------------ service scenarios
@pytest.mark.slow
def test_service_full_hit_prefix_hit_and_no_cache(tmp_path):
    with ChainService(_config(), tmp_path / "svc",
                      cache_budget=64 << 20) as svc:
        cold = svc.submit(CHAIN3)
        svc.wait(cold.id, timeout=60)
        assert cold.state == "done" and cold.adopted_jobs == 0
        assert cold.report.checksum == reference_checksum(CHAIN3)

        warm = svc.submit(CHAIN3)
        svc.wait(warm.id, timeout=60)
        assert warm.adopted_jobs == 3
        assert [k for _, k, _ in warm.report.job_times] == ["cached"] * 3
        assert warm.report.checksum == reference_checksum(CHAIN3)

        longer = svc.submit(CHAIN5)
        svc.wait(longer.id, timeout=60)
        assert longer.adopted_jobs == 3
        assert [k for _, k, _ in longer.report.job_times] == \
            ["cached"] * 3 + ["run"] * 2
        assert longer.report.checksum == reference_checksum(CHAIN5)

        opt_out = svc.submit(CHAIN3, no_cache=True)
        svc.wait(opt_out.id, timeout=60)
        assert opt_out.adopted_jobs == 0
        assert opt_out.report.checksum == reference_checksum(CHAIN3)

        stats = svc.cache.stats()
        assert stats["hits"] == 6 and stats["misses"] == 5
        assert stats["evictions"] == 0
        status = svc.status()
        assert status["cache"]["hits"] == 6
        assert [j["cached_jobs"] for j in status["jobs"]] == [0, 3, 3, 0]


@pytest.mark.slow
def test_service_close_sweeps_non_cached_namespaces(tmp_path):
    """Workdir hygiene: with caching off every finished chain's
    namespace disappears; with caching on only cached reduce jobs
    survive."""
    wd = tmp_path / "svc"
    with ChainService(_config(), wd) as svc:  # cache disabled
        job = svc.submit(CHAIN3)
        svc.wait(job.id, timeout=60)
        deadline = time.monotonic() + 5.0
        while list(wd.glob("node*/chains/*")) and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        assert list(wd.glob("node*/chains/*")) == []

    wd2 = tmp_path / "svc2"
    with ChainService(_config(), wd2, cache_budget=64 << 20) as svc:
        job = svc.submit(CHAIN3)
        svc.wait(job.id, timeout=60)
        deadline = time.monotonic() + 5.0
        while list(wd2.glob("node*/chains/*/map")) and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        # map outputs swept everywhere; cached reduce jobs survive
        assert list(wd2.glob("node*/chains/*/map")) == []
        assert list(wd2.glob("node*/chains/*/reduce/job*"))


@pytest.mark.slow
def test_service_repl_chains_skip_adoption_but_feed_the_cache(tmp_path):
    """REPL-k recovery cannot recompute an adopted sole-copy piece, so
    replicated chains run cold — but their outputs are admitted and a
    later rcmp chain adopts them."""
    with ChainService(_config(), tmp_path / "svc",
                      cache_budget=64 << 20) as svc:
        first = svc.submit(CHAIN3, strategy="repl2")
        svc.wait(first.id, timeout=60)
        assert first.state == "done" and first.adopted_jobs == 0

        second = svc.submit(CHAIN3, strategy="repl2")
        svc.wait(second.id, timeout=60)
        assert second.adopted_jobs == 0  # repl chains never adopt

        third = svc.submit(CHAIN3)  # rcmp
        svc.wait(third.id, timeout=60)
        assert third.adopted_jobs == 3
        assert third.report.checksum == reference_checksum(CHAIN3)


@pytest.mark.slow
def test_service_restart_rescans_and_reuses_the_cache(tmp_path):
    wd = tmp_path / "svc"
    with ChainService(_config(), wd, cache_budget=64 << 20) as svc:
        job = svc.submit(CHAIN3)
        svc.wait(job.id, timeout=60)
        assert job.state == "done"

    with ChainService(_config(), wd, cache_budget=64 << 20) as svc:
        assert len(svc.cache.entries) == 3  # rescan verified the files
        assert svc._seq >= 1               # ids never collide with c0001
        warm = svc.submit(CHAIN3)
        assert warm.id != "c0001"
        svc.wait(warm.id, timeout=60)
        assert warm.adopted_jobs == 3
        assert warm.report.checksum == reference_checksum(CHAIN3)


@pytest.mark.slow
def test_kill_during_cached_prefix_recomputes_and_matches(tmp_path):
    """The differential proof: a node death while a chain rides adopted
    pieces turns the cache loss into ordinary RCMP damage — the cascade
    recomputes the adopted jobs and the checksum stays byte-identical
    to the cold reference."""
    with ChainService(_config(), tmp_path / "svc",
                      cache_budget=64 << 20) as svc:
        cold = svc.submit(CHAIN3)
        svc.wait(cold.id, timeout=60)

        victim = svc.submit(CHAIN5)  # adopts jobs 1-3, runs 4-5
        while victim.state == "queued":
            time.sleep(0.005)
        svc.pool.kill_node(1)        # holds one adopted piece per job
        svc.wait(victim.id, timeout=120)
        assert victim.state == "done"
        assert victim.adopted_jobs == 3
        assert len(victim.report.deaths) == 1
        kinds = [k for _, k, _ in victim.report.job_times]
        assert "recompute" in kinds  # adopted pieces were re-derived
        assert victim.report.checksum == reference_checksum(CHAIN5)
        # the dead node invalidated every entry it held a piece of
        assert svc.cache.stats()["invalidated"] >= 3


@pytest.mark.slow
def test_service_eviction_under_tiny_budget_stays_correct(tmp_path):
    """A budget too small for two chains evicts LRU entries (unlinking
    their files); an evicted chain simply runs cold again — and
    correctly."""
    other = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                           records_per_block=16, seed=9)
    # one CHAIN3-sized chain caches ~15KB: room for one chain, not two
    with ChainService(_config(), tmp_path / "svc",
                      cache_budget=16000) as svc:
        a = svc.submit(CHAIN3)
        svc.wait(a.id, timeout=60)
        b = svc.submit(other)
        svc.wait(b.id, timeout=60)
        assert svc.cache.stats()["evictions"] >= 1
        assert svc.cache.stats()["bytes"] <= 16000
        again = svc.submit(CHAIN3)
        svc.wait(again.id, timeout=60)
        assert again.state == "done"
        assert again.report.checksum == reference_checksum(CHAIN3)


@pytest.mark.slow
def test_cache_registry_file_is_valid_json(tmp_path):
    wd = tmp_path / "svc"
    with ChainService(_config(), wd, cache_budget=64 << 20) as svc:
        job = svc.submit(CHAIN3)
        svc.wait(job.id, timeout=60)
    state = json.loads((wd / "cache_registry.json").read_text())
    assert state["version"] == 2  # pieces as segment sections
    assert len(state["entries"]) == 3
    assert state["counters"]["misses"] == 3
