"""Tests for the multi-process execution runtime (`repro.runtime`).

The fast tests here cover storage primitives, the registry's damage
semantics, and two end-to-end smokes on real worker processes (one clean
run, one real-SIGKILL recovery).  The ``slow`` marker guards the full
differential kill/recovery matrix and the wall-clock comparison — CI runs
them in the dedicated ``runtime-smoke`` job (``-m "slow or not slow"``).

Every end-to-end assertion is a byte-for-byte checksum comparison against
the in-process :class:`repro.localexec.LocalCluster` reference: the UDFs
are deterministic and order-independent, so any recovery mistake — a lost
record, a duplicated key, a stale Fig. 5 map output — changes the final
checksum.
"""

import functools
import os
import time

import pytest

from repro.faults import FaultModel
from repro.localexec import LocalCluster, LocalJobConfig
from repro.obs import RecordingTracer
from repro.runtime.coordinator import Coordinator, RuntimeConfig
from repro.runtime.storage import (
    ClusterRegistry,
    MapEntry,
    NodeStore,
    PieceEntry,
    chain_checksum,
    decode_records,
    encode_records,
    scan_map_segment,
)
from repro.localexec.records import generate_records

CHAIN = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                       records_per_block=16, split_ratio=2, seed=0)


@functools.lru_cache(maxsize=None)
def reference_checksum(chain: LocalJobConfig, n_nodes: int = 4) -> str:
    """Failure-free in-process result — the ground truth all process runs
    (with or without kills) must reproduce byte-for-byte."""
    cluster = LocalCluster(n_nodes, chain)
    for job in range(1, chain.n_jobs + 1):
        cluster.run_job(job)
    return chain_checksum(cluster.final_output())


class KillAt:
    """Hook: real SIGKILLs when a coordinator event fires."""

    def __init__(self, event: str, job: int, victims: list[int]):
        self.event = event
        self.job = job
        self.victims = list(victims)
        self.coord = None

    def __call__(self, event, **info):
        if event == self.event and info.get("job") == self.job:
            while self.victims:
                self.coord.kill_node(self.victims.pop(0))


class KillPlan:
    """Hook: one SIGKILL per (event, job, victim) trigger — kills spaced
    across different jobs, which KillAt's single trigger cannot express."""

    def __init__(self, *triggers: tuple[str, int, int]):
        self.triggers = list(triggers)
        self.coord = None

    @property
    def victims(self):
        return sorted(v for _, _, v in self.triggers)

    def __call__(self, event, **info):
        for trigger in list(self.triggers):
            ev, job, victim = trigger
            if event == ev and info.get("job") == job:
                self.triggers.remove(trigger)
                self.coord.kill_node(victim)


def run_process_chain(tmp_path, chain=CHAIN, n_nodes=4, hooks=None,
                      tracer=None, **kwargs):
    config_kwargs = {k: kwargs.pop(k) for k in
                     ("strategy", "heartbeat_interval", "heartbeat_expiry",
                      "fig5_guard", "hybrid_interval", "hybrid_replication",
                      "hybrid_reclaim", "task_slots",
                      "fetch_timeout", "io_timeout",
                      "startup_timeout", "speculation",
                      "speculation_slowdown", "speculation_min_age",
                      "pre_replicate", "suspect_window", "suspect_ratio",
                      "suspect_min_commits", "memory_budget")
                     if k in kwargs}
    config = RuntimeConfig(n_nodes=n_nodes, chain=chain, **config_kwargs)
    with Coordinator(config, tmp_path / "cluster", tracer=tracer,
                     hooks=hooks, **kwargs) as coord:
        if hooks is not None and hasattr(hooks, "coord"):
            hooks.coord = coord
        return coord.run_chain()


def spans(tracer, cat=None, prefix=""):
    return [e for e in tracer.events
            if e["ph"] == "X" and (cat is None or e.get("cat") == cat)
            and e["name"].startswith(prefix)]


def instants(tracer, name):
    return [e for e in tracer.events
            if e["ph"] == "i" and e["name"] == name]


def on_disk_orphans(coord, jobs):
    """Outputs of ``jobs`` on *surviving* nodes' disks that the registry
    does not account for (every live map section must be its task's
    registered output, every piece file some entry's primary copy or a
    registered replica)."""
    orphans = []
    reg = coord.chain_run.registry
    workdir = coord.pool.workdir
    for node in sorted(coord.pool.alive):
        store = NodeStore(workdir, node)
        for segment in sorted(store.dir.glob("map/job*.seg")):
            job = int(segment.stem[3:])
            for task in sorted(scan_map_segment(segment)):
                entry = reg.map_outputs.get((job, task))
                if job in jobs and (entry is None or entry.node != node):
                    orphans.append(
                        f"{segment.relative_to(workdir)}#{task}")
        for path in sorted(store.dir.glob("reduce/job*/part*/*.bin")):
            job = int(path.parent.parent.name[3:])
            partition = int(path.parent.name[4:])
            split, n_splits = map(int, path.stem[1:].split("of"))
            if job in jobs and node not in reg.holders(job, partition,
                                                       split, n_splits):
                orphans.append(str(path.relative_to(workdir)))
    return orphans


# ----------------------------------------------------------------- storage
def test_record_codec_roundtrip():
    records = generate_records(32, seed=5, value_size=24)
    assert decode_records(encode_records(records)) == records
    assert decode_records(b"") == []
    with pytest.raises(ValueError):
        decode_records(encode_records(records) + b"\x00")


def test_chain_checksum_ignores_piece_boundaries_and_order():
    records = generate_records(20, seed=1)
    whole = {0: sorted(records)}
    shuffled = {0: list(reversed(records))}
    assert chain_checksum(whole) == chain_checksum(shuffled)
    # a single dropped record must change the checksum
    assert chain_checksum({0: records[:-1]}) != chain_checksum(whole)


def test_node_store_atomic_write_and_drop(tmp_path):
    store = NodeStore(tmp_path, 3)
    records = generate_records(8, seed=2)
    counts = store.write_map_output(2, 7, (1, 0), {0: records, 1: []})
    assert counts == {0: 8, 1: 0}
    assert decode_records(store.read_map_slice(2, 7, 0)) == records
    assert store.read_map_slice(2, 7, 5) == b""  # absent slice = empty
    store.drop_map_output(2, 7)
    assert store.read_map_slice(2, 7, 0) == b""
    store.drop_map_output(2, 99)  # idempotent on a never-written task

    store.write_piece(1, 0, 1, 2, records)
    assert decode_records(store.read_piece(1, 0, 1, 2)) == records
    assert not list(store.dir.rglob("*.tmp"))


def test_registry_files_damage_for_committed_jobs_only():
    reg = ClusterRegistry()
    reg.add_map(MapEntry(1, 0, node=2, origin=None, counts={0: 4}))
    reg.add_piece(PieceEntry(1, 0, 0, 1, node=2, n_records=4))
    reg.add_piece(PieceEntry(2, 1, 0, 1, node=2, n_records=4))
    reg.add_piece(PieceEntry(2, 2, 0, 1, node=0, n_records=4))
    reg.record_death(2, completed_jobs=1)
    # the dead node's outputs are gone either way...
    assert reg.map_outputs == {}
    assert reg.pieces[1][0] == [] and reg.pieces[2][1] == []
    # ...but only the committed job's losses count as damage
    assert reg.damaged_jobs() == [1]
    assert reg.damage[1][0] == [(0, 1)]


def test_config_rejects_expiry_crowding_io_timeout():
    """A heartbeat_expiry at or above io_timeout would turn every
    mid-shuffle death into a 'dispatch stalled' error instead of a
    recovery; the config must refuse the combination up front."""
    RuntimeConfig(heartbeat_expiry=0.4, io_timeout=30.0)  # fine
    with pytest.raises(ValueError, match="heartbeat_expiry"):
        RuntimeConfig(heartbeat_expiry=35.0, io_timeout=30.0)
    with pytest.raises(ValueError, match="heartbeat_expiry"):
        RuntimeConfig(heartbeat_expiry=20.0, io_timeout=30.0)


def test_cascade_jobs_skips_stale_upstream_damage(tmp_path):
    """Damage filed for a job upstream of an intact one is outside the
    cascade: it must not drive the run loop (regression — run_chain spun
    forever recovering nothing when damaged_jobs() held only such jobs)."""
    run = Coordinator(RuntimeConfig(n_nodes=4, chain=CHAIN),
                      tmp_path / "cluster").chain_run
    run.done_jobs = {1, 2, 3}
    run.registry.damage = {1: {0: [(0, 1)]}, 2: {1: [(0, 2)]}}
    assert run.registry.damaged_jobs() == [1, 2]
    assert run._cascade_jobs() == []  # job 3 intact: nothing to do
    # a later death damaging the sink makes them cascade-relevant again
    run.registry.damage[3] = {0: [(0, 1)]}
    assert run._cascade_jobs() == [1, 2, 3]


def test_registry_promotes_replica_instead_of_filing_damage():
    reg = ClusterRegistry()
    reg.add_piece(PieceEntry(1, 0, 0, 1, node=1, n_records=4))
    reg.add_replica(1, 0, 0, 1, node=3)
    reg.mark_replicated(1, 2)
    reg.record_death(1, completed_jobs=1)
    # the surviving copy takes over as primary; no damage is filed
    assert reg.damaged_jobs() == []
    [entry] = reg.pieces[1][0]
    assert entry.node == 3 and reg.holders(1, 0, 0, 1) == {3}
    # ...but the piece is now below its replication target
    assert reg.under_replicated(n_alive=3) == [entry]
    reg.add_replica(1, 0, 0, 1, node=0)
    assert reg.under_replicated(n_alive=3) == []
    with pytest.raises(KeyError):
        reg.add_replica(9, 0, 0, 1, node=2)  # replica without a primary


def test_registry_last_copy_loss_is_damage_even_with_replication():
    reg = ClusterRegistry()
    reg.add_piece(PieceEntry(1, 0, 0, 1, node=1, n_records=4))
    reg.add_replica(1, 0, 0, 1, node=2)
    reg.record_death(1, completed_jobs=1)
    reg.record_death(2, completed_jobs=1)
    assert reg.damaged_jobs() == [1]
    assert reg.damage[1][0] == [(0, 1)]


def test_registry_recompute_resets_stale_holder_sets():
    """A recomputed piece replaces the same-signature entry; the old
    entry's holder set must go with it or re-replication would count
    copies of bytes that no longer exist."""
    reg = ClusterRegistry()
    reg.add_piece(PieceEntry(1, 0, 0, 1, node=0, n_records=4))
    reg.add_replica(1, 0, 0, 1, node=2)
    reg.add_piece(PieceEntry(1, 0, 0, 1, node=3, n_records=4))
    assert reg.holders(1, 0, 0, 1) == {3}


def test_registry_reclaim_through_forgets_metadata():
    reg = ClusterRegistry()
    reg.add_map(MapEntry(1, 0, node=0, origin=None, counts={0: 4}))
    reg.add_map(MapEntry(2, 0, node=0, origin=None, counts={0: 4}))
    reg.add_piece(PieceEntry(1, 0, 0, 1, node=0, n_records=4))
    reg.add_piece(PieceEntry(2, 0, 0, 1, node=1, n_records=4))
    reg.mark_replicated(1, 2)
    reg.reclaim_job_sets(map_jobs={1}, piece_jobs={1})
    assert reg.map_tasks_of(1) == [] and reg.map_tasks_of(2) == [0]
    assert 1 not in reg.pieces and 1 not in reg.replicated_jobs
    # a death after reclamation must not file damage for unlinked files
    reg.record_death(0, completed_jobs=2)
    assert reg.damaged_jobs() == []


def test_node_store_drop_job_and_reclaim(tmp_path):
    store = NodeStore(tmp_path, 0)
    records = generate_records(8, seed=3)
    for job in (1, 2, 3):
        store.write_map_output(job, 0, None, {0: records})
        store.write_piece(job, 0, 0, 1, records)
    freed = store.reclaim_job_sets(map_jobs={1, 2}, piece_jobs={1})
    assert freed > 0
    # in the reclaimed sets: gone; outside them: untouched
    assert not store.map_segment_path(1).exists()
    assert not store.map_segment_path(2).exists()
    assert sorted(scan_map_segment(store.map_segment_path(3))) == [0]
    assert not (store.dir / "reduce" / "job1").exists()
    assert store.read_piece(2, 0, 0, 1) == encode_records(records)
    assert store.drop_job(2) > 0
    assert not (store.dir / "reduce" / "job2").exists()
    assert store.drop_job(2) == 0  # idempotent on swept jobs


def test_config_strategy_validation():
    RuntimeConfig(strategy="repl2", n_nodes=2)
    with pytest.raises(ValueError, match="replicas"):
        RuntimeConfig(strategy="repl3", n_nodes=2)
    with pytest.raises(ValueError, match="hybrid"):
        RuntimeConfig(strategy="rcmp", hybrid_reclaim=True)
    with pytest.raises(ValueError, match="hybrid_interval"):
        RuntimeConfig(strategy="hybrid", hybrid_interval=0)
    # anchors fall on interval multiples, never on the final job
    config = RuntimeConfig(strategy="hybrid", hybrid_interval=2,
                           chain=LocalJobConfig(n_jobs=5))
    assert [j for j in range(1, 6) if config.is_anchor(j)] == [2, 4]
    assert config.replication_for(2) == 2 and config.replication_for(3) == 1


def test_registry_coverage_tracks_split_pieces():
    reg = ClusterRegistry()
    reg.add_piece(PieceEntry(1, 0, 0, 2, node=0, n_records=3))
    assert not reg.covered(1, 0)
    reg.add_piece(PieceEntry(1, 0, 1, 2, node=1, n_records=5))
    assert reg.covered(1, 0)
    assert not reg.coverage_complete(1, n_partitions=2)


# ------------------------------------------------------- end-to-end smokes
def test_no_failure_run_matches_localexec(tmp_path):
    tracer = RecordingTracer()
    report = run_process_chain(tmp_path, tracer=tracer)
    assert report.checksum == reference_checksum(CHAIN)
    assert report.deaths == []
    assert [(j, k) for j, k, _ in report.job_times] == \
        [(1, "run"), (2, "run"), (3, "run")]
    # the coordinator traces chain/job/task spans for `repro analyze`
    assert spans(tracer, "chain") and len(spans(tracer, "job")) == 3
    task_spans = spans(tracer, "task")
    assert task_spans
    assert {e["args"]["pid"] for e in task_spans
            if "pid" in e.get("args", {})}  # real worker pids recorded


def test_kill_between_commit_and_next_job_recovers(tmp_path):
    """A worker SIGKILLed right at a job commit: the next job starts, the
    death is declared mid-dispatch, and the cascade recomputes the lost
    outputs with k-way splitting."""
    tracer = RecordingTracer()
    hooks = KillAt("job-commit", job=2, victims=[1])
    report = run_process_chain(tmp_path, hooks=hooks, tracer=tracer)
    assert report.checksum == reference_checksum(CHAIN)
    assert [n for _, n in report.deaths] == [1]
    # jobs 1+2 ran, were damaged, and were minimally recomputed
    kinds = [(j, k) for j, k, _ in report.job_times]
    assert kinds == [(1, "run"), (2, "run"), (1, "recompute"),
                     (2, "recompute"), (3, "run")]
    # split reducer work really ran on >= 2 distinct worker processes
    split_spans = [e for e in spans(tracer, "task")
                   if e.get("args", {}).get("n_splits", 1) > 1]
    assert split_spans, "split_ratio=2 must split a whole-partition loss"
    assert len({e["args"]["pid"] for e in split_spans}) >= 2
    assert instants(tracer, "node-death")


def test_rehomed_recompute_maps_spread_over_the_survivors(tmp_path):
    """The dead node's job-1 blocks are recomputed on all survivors, not
    piled on the lowest-numbered one (paper §IV), each re-homed mapper
    regenerating just its block of the dead node's input."""
    tracer = RecordingTracer()
    chain = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                           records_per_block=8, seed=0)
    report = run_process_chain(
        tmp_path, chain=chain, tracer=tracer,
        fault_model=FaultModel.parse("kill@job3+0:node=1"))
    assert report.checksum == reference_checksum(chain)
    assert [n for _, n in report.deaths] == [1]
    recomputed = spans(tracer, "task", prefix="recompute-map-1:")
    assert len(recomputed) == 6  # node 1's whole input, block by block
    assert len({e["tid"] for e in recomputed}) >= 2


def test_stale_upstream_damage_does_not_hang(tmp_path):
    """End-to-end regression for the recover-nothing spin: leftovers of
    an earlier death (a lost job-1 piece whose consumer job is intact)
    must not wedge run_chain once the cascade no longer needs them."""
    class FileStaleDamage:
        coord = None

        def __call__(self, event, **info):
            if event == "job-commit" and info.get("job") == 2:
                reg = self.coord.chain_run.registry
                lost = reg.pieces[1][0].pop(0)
                reg.damage.setdefault(1, {}).setdefault(0, []).append(
                    lost.signature)

    hooks = FileStaleDamage()
    report = run_process_chain(tmp_path, hooks=hooks)
    assert report.checksum == reference_checksum(CHAIN)
    assert [(j, k) for j, k, _ in report.job_times] == \
        [(1, "run"), (2, "run"), (3, "run")]


def test_worker_software_error_surfaces_with_traceback(tmp_path,
                                                       monkeypatch):
    """A deterministic bug inside a task must surface as a coordinator
    error carrying the worker's traceback — not masquerade as a node
    death and cascade through recovery killing node after node."""
    def buggy_udf(keys, values, job, tick):
        raise ValueError("deterministic UDF bug")

    # fork start method: the patched module state is inherited by workers
    monkeypatch.setattr("repro.runtime.worker.map_batch", buggy_udf)
    with pytest.raises(RuntimeError,
                       match="deterministic UDF bug") as excinfo:
        run_process_chain(tmp_path)
    assert "software error" in str(excinfo.value)


def test_startup_death_cleans_up_workers(tmp_path, monkeypatch):
    """A worker dying before readiness fails start() — which must reap
    the surviving workers rather than leak them until interpreter exit."""
    import multiprocessing

    import repro.runtime.coordinator as coord_mod

    real_main = coord_mod.worker_main

    def flaky_main(node, *args, **kwargs):
        if node == 2:
            os._exit(1)
        real_main(node, *args, **kwargs)

    monkeypatch.setattr(coord_mod, "worker_main", flaky_main)
    before = len(multiprocessing.active_children())
    coord = Coordinator(RuntimeConfig(n_nodes=4, chain=CHAIN),
                        tmp_path / "cluster")
    with pytest.raises(RuntimeError, match="died during startup"):
        coord.start()
    assert len(multiprocessing.active_children()) == before


# --------------------------------------------------- crash-timing matrix
@pytest.mark.slow
def test_kill_mid_shuffle_recovers(tmp_path):
    """SIGKILL lands after reduce dispatch, while reducers are fetching
    the dead node's map outputs over TCP."""
    hooks = KillAt("reduce-dispatch", job=2, victims=[0])
    report = run_process_chain(tmp_path, hooks=hooks)
    assert report.checksum == reference_checksum(CHAIN)
    assert [n for _, n in report.deaths] == [0]


@pytest.mark.slow
def test_double_kill_same_job_caps_split(tmp_path):
    """Two workers die in one job: the k-way split is capped at the
    surviving-node count (4 requested, 2 survivors -> 2-way)."""
    chain = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                           records_per_block=16, split_ratio=4, seed=0)
    tracer = RecordingTracer()
    hooks = KillAt("job-commit", job=2, victims=[1, 3])
    report = run_process_chain(tmp_path, chain=chain, hooks=hooks,
                               tracer=tracer)
    assert report.checksum == reference_checksum(chain)
    assert sorted(n for _, n in report.deaths) == [1, 3]
    n_splits = {e["args"]["n_splits"] for e in spans(tracer, "task")
                if "n_splits" in e.get("args", {})}
    assert 2 in n_splits and not any(k > 2 for k in n_splits)


@pytest.mark.slow
def test_fig5_guard_on_real_processes(tmp_path):
    """The Fig. 5 hazard constructed on real storage: a consumer map
    output that survives the death but was derived from a partition
    regenerated by splitting must be invalidated and re-executed."""
    tracer = RecordingTracer()
    hooks = KillAt("job-commit", job=2, victims=[0])
    config = RuntimeConfig(n_nodes=4, chain=CHAIN)
    # move one job-2 consumer of node-0's partition onto node 3, so its
    # output survives node 0's death (same setup as test_localexec)
    def assign(job, task, node):
        return 3 if (job, task) == (2, 0) else node

    with Coordinator(config, tmp_path / "cluster", tracer=tracer,
                     hooks=hooks, map_assignment=assign) as coord:
        hooks.coord = coord
        report = coord.run_chain()
    assert report.checksum == reference_checksum(CHAIN)
    dropped = instants(tracer, "invalidate-map")
    assert any(e["args"]["job"] == 2 and e["args"]["task"] == 0
               for e in dropped)
    # the invalidated mapper really re-executed on a worker process
    rerun = [e for e in spans(tracer, "task")
             if e["name"].endswith(":map:2:0")]
    assert len(rerun) >= 2  # original run + post-invalidation re-run


@pytest.mark.slow
def test_live_fault_plan_delivers_sigkill(tmp_path):
    """A `FaultModel` plan drives a real wall-clock SIGKILL."""
    report = run_process_chain(
        tmp_path, fault_model=FaultModel.parse("kill@job1+0:node=2"))
    assert report.checksum == reference_checksum(CHAIN)
    assert [n for _, n in report.deaths] == [2]


@pytest.mark.slow
def test_kill_recovery_through_the_md5_kernel(tmp_path):
    """Blocks large enough that every digest column runs the batch MD5
    kernel (the other process tests stay below its crossover): a real
    kill, a split recovery, and still the per-record reference's bytes."""
    from repro.localexec.records import MD5_KERNEL_MIN_ROWS
    chain = LocalJobConfig(n_jobs=3, n_partitions=2, records_per_node=4096,
                           records_per_block=2048, value_size=64, seed=3)
    assert chain.records_per_block >= 2 * MD5_KERNEL_MIN_ROWS
    report = run_process_chain(
        tmp_path, chain=chain,
        fault_model=FaultModel.parse("kill@job2+0:node=1"))
    assert report.checksum == reference_checksum(chain)
    assert [n for _, n in report.deaths] == [1]


@pytest.mark.slow
def test_heartbeat_expiry_mode_declares_death(tmp_path):
    """With a non-zero expiry the death is declared only after heartbeat
    silence, not via the omniscient process-exit check."""
    hooks = KillAt("job-commit", job=1, victims=[3])
    report = run_process_chain(tmp_path, hooks=hooks,
                               heartbeat_interval=0.05,
                               heartbeat_expiry=0.4)
    assert report.checksum == reference_checksum(CHAIN)
    assert [n for _, n in report.deaths] == [3]
    # the declaration waited out the silence window after the job-1 kill
    death_time = report.deaths[0][0]
    job1_wall = report.job_times[0][2]
    assert death_time >= job1_wall + 0.35


@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["rcmp", "optimistic"])
@pytest.mark.parametrize("scenario", ["none", "single", "double"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_differential_matrix(tmp_path, seed, scenario, strategy):
    """The acceptance matrix: every (seed, failure scenario, strategy)
    must reproduce the failure-free in-process checksum byte-for-byte."""
    chain = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                           records_per_block=16, split_ratio=2, seed=seed)
    victims = {"none": [], "single": [1], "double": [1, 2]}[scenario]
    hooks = KillAt("job-commit", job=2, victims=victims) if victims \
        else None
    report = run_process_chain(tmp_path, chain=chain, hooks=hooks,
                               strategy=strategy)
    assert report.checksum == reference_checksum(chain)
    assert sorted(n for _, n in report.deaths) == victims
    assert report.strategy == strategy


@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["repl2", "hybrid"])
@pytest.mark.parametrize("scenario", ["none", "single", "double"])
@pytest.mark.parametrize("seed", [0, 1])
def test_differential_matrix_replicated_strategies(tmp_path, seed,
                                                   scenario, strategy):
    """The replication side of the acceptance matrix.  Double kills are
    spaced across job commits: re-replication restores the REPL-2 holder
    count between them (losing both copies of a piece at once is
    genuinely unrecoverable without recomputation)."""
    chain = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                           records_per_block=16, split_ratio=2, seed=seed)
    triggers = {"none": [],
                "single": [("job-commit", 2, 1)],
                "double": [("job-commit", 1, 1),
                           ("job-commit", 2, 2)]}[scenario]
    hooks = KillPlan(*triggers) if triggers else None
    report = run_process_chain(tmp_path, chain=chain, hooks=hooks,
                               strategy=strategy)
    assert report.checksum == reference_checksum(chain)
    assert sorted(n for _, n in report.deaths) == \
        sorted(v for _, _, v in triggers)
    assert report.strategy == strategy
    if strategy == "repl2":  # the Hadoop baseline never recomputes
        assert not any(k == "recompute" for _, k, _ in report.job_times)


@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["rcmp", "optimistic", "repl2",
                                      "hybrid"])
def test_differential_matrix_straggler(tmp_path, strategy):
    """The straggler column of the acceptance matrix: one 10x-throttled
    node with speculation and pre-replication on must still reproduce
    the failure-free in-process checksum byte-for-byte under every
    strategy — and, being slow rather than dead, must never be declared
    lost or cascade-recovered."""
    chain = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                           records_per_block=16, split_ratio=2, seed=0)
    report = run_process_chain(
        tmp_path, chain=chain, strategy=strategy,
        task_slots=2, speculation=True, pre_replicate=True,
        speculation_min_age=0.02,
        fault_model=FaultModel.parse("slow@1:10"))
    assert report.checksum == reference_checksum(chain)
    assert report.deaths == []  # slow is never dead
    # no recovery machinery ran: every job committed as a plain run
    assert all(k in ("run", "re-replicate") for _, k, _ in
               report.job_times)
    assert report.speculation["throttled"] == {1: 10.0}


@pytest.mark.slow
def test_hybrid_anchor_bounds_the_cascade(tmp_path):
    """A death after an anchor recomputes only the jobs behind it: the
    anchor's replicated output survives as the recovery floor, even
    though a pre-anchor job is also damaged (§IV-C)."""
    chain = LocalJobConfig(n_jobs=4, n_partitions=4, records_per_node=48,
                           records_per_block=16, split_ratio=2, seed=0)
    tracer = RecordingTracer()
    hooks = KillAt("job-commit", job=3, victims=[1])
    report = run_process_chain(tmp_path, chain=chain, hooks=hooks,
                               tracer=tracer, strategy="hybrid",
                               hybrid_interval=2)
    assert report.checksum == reference_checksum(chain)
    # only job 3 recomputed: job 1's damage sits behind the job-2 anchor
    assert [(j, k) for j, k, _ in report.job_times
            if k == "recompute"] == [(3, "recompute")]
    [recovery] = [e for e in spans(tracer, "cascade")
                  if e["name"] == "recovery"]
    assert recovery["args"]["jobs"] == [3]
    assert instants(tracer, "replicated")


@pytest.mark.slow
def test_hybrid_death_at_anchor_commit_recovers(tmp_path):
    """SIGKILL lands while the anchor's replicas are being written: the
    job is not yet committed, so the coordinator re-enters it, restores
    the missing pieces and copies, and the anchor ends fully
    replicated."""
    chain = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                           records_per_block=16, split_ratio=2, seed=0)
    hooks = KillAt("replicate-dispatch", job=2, victims=[1])
    config = RuntimeConfig(n_nodes=4, chain=chain, strategy="hybrid",
                           hybrid_interval=2)
    with Coordinator(config, tmp_path / "cluster", hooks=hooks) as coord:
        hooks.coord = coord
        report = coord.run_chain()
        assert report.checksum == reference_checksum(chain)
        assert [n for _, n in report.deaths] == [1]
        registry = coord.chain_run.registry
        assert registry.replicated_jobs == {2: 2}
        for plist in registry.pieces[2].values():
            for entry in plist:
                assert len(registry.holders(*entry.key)) >= 2


@pytest.mark.slow
def test_kill_mid_replica_write_leaves_no_torn_replica(tmp_path):
    """SIGKILL during the replication phase: whatever the victim was
    writing dies with it; every *committed* replica on a surviving node
    is byte-identical to its primary and no temp file leaks."""
    chain = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                           records_per_block=16, split_ratio=2, seed=0)
    hooks = KillAt("replicate-dispatch", job=1, victims=[2])
    config = RuntimeConfig(n_nodes=4, chain=chain, strategy="repl2")
    with Coordinator(config, tmp_path / "cluster", hooks=hooks) as coord:
        hooks.coord = coord
        report = coord.run_chain()
        assert report.checksum == reference_checksum(chain)
        workdir = coord.pool.workdir
        for node in coord.pool.alive:
            assert not list(NodeStore(workdir, node).dir.rglob("*.tmp"))
        for key, holders in coord.chain_run.registry.replicas.items():
            datas = {NodeStore(workdir, n).read_piece(*key)
                     for n in holders}
            assert len(holders) >= 2 and len(datas) == 1


@pytest.mark.slow
def test_hybrid_reclaim_frees_files_behind_the_anchor(tmp_path):
    """Reclamation really unlinks: map outputs and pieces behind each
    committed anchor disappear from every node's disk, files at/after
    the last anchor stay, and a post-reclaim death still recovers (the
    cascade never needs the reclaimed files)."""
    chain = LocalJobConfig(n_jobs=5, n_partitions=4, records_per_node=48,
                           records_per_block=16, split_ratio=2, seed=0)
    hooks = KillAt("job-commit", job=4, victims=[1])
    config = RuntimeConfig(n_nodes=4, chain=chain, strategy="hybrid",
                           hybrid_interval=2, hybrid_reclaim=True)
    with Coordinator(config, tmp_path / "cluster", hooks=hooks) as coord:
        hooks.coord = coord
        report = coord.run_chain()
        assert report.checksum == reference_checksum(chain)
        # anchors at jobs 2 and 4 each ran a reclamation pass
        assert [a for a, _ in report.reclaims] == [2, 4]
        assert report.reclaimed_bytes > 0
        assert "B freed behind anchor" in report.render()
        # post-anchor death never recomputed anything behind the anchor
        assert not any(j < 4 for j, k, _ in report.job_times
                       if k == "recompute")
        stores = [NodeStore(coord.pool.workdir, n)
                  for n in sorted(coord.pool.alive)]
        # behind the last anchor: gone from every surviving disk
        for store in stores:
            for job in (1, 2, 3):
                assert not store.map_segment_path(job).exists()
            for job in (1, 2):
                assert not (store.dir / "reduce" / f"job{job}").exists()
        # at/after the last intact anchor: never touched
        assert any(s.map_segment_path(4).exists() for s in stores)
        assert any((s.dir / "reduce" / "job4").is_dir() for s in stores)
        assert any((s.dir / "reduce" / "job5").is_dir() for s in stores)


@pytest.mark.slow
def test_optimistic_rerun_leaves_no_orphan_files(tmp_path):
    """The rerun sweep: re-executed jobs place their reducers over the
    *surviving* nodes, so without the on-disk sweep the old placement's
    files linger as orphans on nodes the rerun no longer uses."""
    hooks = KillAt("job-commit", job=2, victims=[1])
    config = RuntimeConfig(n_nodes=4, chain=CHAIN, strategy="optimistic")
    with Coordinator(config, tmp_path / "cluster", hooks=hooks) as coord:
        hooks.coord = coord
        report = coord.run_chain()
        assert report.checksum == reference_checksum(CHAIN)
        assert [(j, k) for j, k, _ in report.job_times] == \
            [(1, "run"), (2, "run"), (1, "rerun"), (2, "rerun"), (3, "run")]
        assert on_disk_orphans(coord, jobs={1, 2}) == []
        # the check is not blind: a live section no registry entry names
        # is an orphan (planted beside the worker's own sections)
        node = min(coord.pool.alive)
        planted = NodeStore(coord.pool.workdir, node)
        planted.write_map_output(1, 987654, None, {0: []})
        planted.close()
        assert on_disk_orphans(coord, jobs={1, 2}) == \
            [f"node{node:03d}/map/job1.seg#987654"]


@pytest.mark.slow
def test_repl2_simultaneous_double_copy_loss_is_irrecoverable(tmp_path):
    """Losing both holders of a piece at once exceeds what REPL-2 can
    mask — the coordinator must fail loudly, not return wrong bytes.
    (Replica placement varies run to run, so the victims are the actual
    holder set of one committed piece, read at kill time.)"""
    class KillAllHolders:
        coord = None

        def __call__(self, event, **info):
            if event == "job-commit" and info.get("job") == 2:
                reg = self.coord.chain_run.registry
                entry = reg.pieces[2][0][0]
                for node in sorted(reg.holders(*entry.key)):
                    self.coord.kill_node(node)

    with pytest.raises(RuntimeError, match="irrecoverable"):
        run_process_chain(tmp_path, hooks=KillAllHolders(),
                          strategy="repl2")


def _cross_worker_overlap(tasks):
    """Wall time during which task spans from >= 2 distinct workers were
    open simultaneously (an event sweep over the span intervals)."""
    events = []
    for e in tasks:
        events.append((e["ts"], 1, e["tid"]))
        events.append((e["ts"] + e["dur"], -1, e["tid"]))
    events.sort()
    open_by: dict = {}
    overlap, last = 0.0, None
    for t, delta, tid in events:
        if last is not None and \
                sum(1 for v in open_by.values() if v > 0) >= 2:
            overlap += t - last
        open_by[tid] = open_by.get(tid, 0) + delta
        last = t
    return overlap


@pytest.mark.slow
def test_four_nodes_beat_one_node_wall_clock(tmp_path):
    """Real processes overlap map/shuffle/reduce work across nodes.

    The deterministic assertion is trace-based: the 4-node run must
    actually *schedule* compute concurrently — all four workers execute
    tasks, and spans from distinct workers are open simultaneously for
    most of the chain — which no amount of host-scheduler noise can
    fake or hide.  The raw 4-vs-1 wall-clock race only measures real
    parallelism when the host has cores to spare, so it runs best-of-3
    behind an ``os.cpu_count()`` guard (flaky on 1-core hosts
    otherwise: the win there is I/O overlap only)."""
    total = 12_000
    chain4 = LocalJobConfig(n_jobs=3, n_partitions=8,
                            records_per_node=total // 4,
                            records_per_block=64, seed=0, value_size=64)
    chain1 = LocalJobConfig(n_jobs=3, n_partitions=8,
                            records_per_node=total,
                            records_per_block=64, seed=0, value_size=64)

    tracer = RecordingTracer()
    t0 = time.perf_counter()
    run_process_chain(tmp_path / "four", chain=chain4, n_nodes=4,
                      tracer=tracer)
    t4 = time.perf_counter() - t0
    tasks = spans(tracer, "task")
    assert {e["tid"] for e in tasks} == {0, 1, 2, 3}
    window = (max(e["ts"] + e["dur"] for e in tasks)
              - min(e["ts"] for e in tasks))
    overlap = _cross_worker_overlap(tasks)
    assert overlap > 0.5 * window, \
        f"workers overlapped {overlap:.3f}s of a {window:.3f}s window"

    if (os.cpu_count() or 1) < 2:
        return  # no parallel compute possible; the race means nothing

    def wall(n_nodes, chain, tag):
        best = float("inf")
        for attempt in range(3):
            t0 = time.perf_counter()
            run_process_chain(tmp_path / f"{tag}{attempt}", chain=chain,
                              n_nodes=n_nodes)
            best = min(best, time.perf_counter() - t0)
        return best

    t4 = min(t4, wall(4, chain4, "four"))
    t1 = wall(1, chain1, "one")
    assert t4 < t1, f"4-node {t4:.2f}s vs 1-node {t1:.2f}s"


#: the benchmark spine's chain shape at 40% of its records: ten map
#: tasks a node and job, blocks large enough for the batch MD5 kernel
WIDE = LocalJobConfig(n_jobs=3, n_partitions=8, records_per_node=12_000,
                      records_per_block=1_200, value_size=64,
                      split_ratio=None, seed=0)


def survivor_tmp_files(root, survivors):
    """``*.tmp`` files under the surviving nodes' directories (a node
    SIGKILLed mid-write may rightly leave one in its own).  ``os.walk``
    rather than ``rglob``: a service's close-time sweep may be deleting
    directories underneath."""
    return [name for node in survivors
            for _, _, names in os.walk(NodeStore(root, node).dir)
            for name in names if name.endswith(".tmp")]


@pytest.mark.slow
@pytest.mark.parametrize("task_slots", [1, 2])
@pytest.mark.parametrize("strategy", ["rcmp", "repl2"])
def test_death_cancels_the_queued_map_phase(tmp_path, strategy, task_slots):
    """A death at the start of job 3 finds ~10 of its map tasks queued on
    every survivor.  The epoch bump reaches a worker's intake while its
    executor is busy, so the queue is skipped, not run: per slot only the
    task already past its pre-commit check, a completion already on the
    wire and whatever finishes in the ~1 ms before the first recovery
    command is sent commit under the cancelled epoch (one slot used to
    commit all ~30), an aborted task leaves no tmp file, and the output
    is the reference's."""
    tracer = RecordingTracer()
    report = run_process_chain(
        tmp_path, chain=WIDE, strategy=strategy, task_slots=task_slots,
        tracer=tracer, fault_model=FaultModel.parse("kill@job3+0:node=1"))
    assert report.checksum == reference_checksum(WIDE)
    assert [node for _, node in report.deaths] == [1]
    survivors = (0, 2, 3)
    assert report.cancelled_commits <= 3 * len(survivors) * task_slots
    assert len(instants(tracer, "cancelled-commit")) == \
        report.cancelled_commits
    assert survivor_tmp_files(tmp_path / "cluster", survivors) == []


@pytest.mark.slow
def test_workers_survive_many_sequential_chains(tmp_path):
    """Back-to-back chains in fresh coordinators do not leak processes."""
    import multiprocessing

    before = len(multiprocessing.active_children())
    for i in range(2):
        chain = LocalJobConfig(n_jobs=2, n_partitions=2,
                               records_per_node=16, records_per_block=8,
                               seed=i)
        report = run_process_chain(tmp_path / f"c{i}", chain=chain,
                                   n_nodes=2)
        assert report.checksum == reference_checksum(chain, 2)
    assert len(multiprocessing.active_children()) == before
