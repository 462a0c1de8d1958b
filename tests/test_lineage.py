"""Unit tests for the ChainState lineage planner."""

import pytest

from repro.cluster import presets
from repro.cluster.topology import Cluster
from repro.core import strategies
from repro.core.lineage import ChainState, Piece, _JobState
from repro.core.persistence import MapOutputMeta, PersistedStore
from repro.dfs import DistributedFileSystem
from repro.mapreduce.types import PartitionRef
from repro.runtime.recovery import STRIDE
from repro.simcore import SeedSequenceRegistry, Simulator
from repro.workloads.chain import build_chain

MB = 1 << 20


def make_state(n_nodes=4, n_jobs=3, strategy=None):
    chain = build_chain(n_jobs=n_jobs, per_node_input=256 * MB,
                        block_size=64 * MB)
    sim = Simulator()
    cluster = Cluster(sim, presets.tiny(n_nodes), SeedSequenceRegistry(1))
    dfs = DistributedFileSystem(cluster, chain.block_size)
    store = PersistedStore()
    state = ChainState(chain, cluster, dfs, store,
                       strategy or strategies.RCMP)
    return state, dfs, store


def fabricate_job(state, dfs, j, n_partitions=4, piece_mb=64, nodes=None):
    js = _JobState()
    nodes = nodes or [0, 1, 2, 3]
    for p in range(n_partitions):
        name = f"fab-j{j}-p{p}"
        dfs.create_placed(name, piece_mb * MB,
                          locations=[nodes[p % len(nodes)]],
                          tags={"job_index": j, "partition": p})
        js.layout[p] = [Piece(name, 1.0, 0, 1)]
    state.jobs[j] = js
    return js


# -------------------------------------------------------------- enumeration
def test_job1_maps_from_input_file():
    state, dfs, _store = make_state()
    state.seed_input()
    tasks = state.enumerate_map_tasks(1)
    # 4 nodes x 256MB at 64MB blocks = 16 map tasks
    assert len(tasks) == 16
    assert all(t.input.origin is None for t in tasks)
    assert [t.task_id for t in tasks] == list(range(16))


def test_downstream_maps_use_hierarchical_ids_and_origins():
    state, dfs, _store = make_state()
    state.seed_input()
    fabricate_job(state, dfs, 1)
    tasks = state.enumerate_map_tasks(2)
    assert len(tasks) == 4  # one 64MB block per partition piece
    for t in tasks:
        partition = t.task_id // STRIDE
        assert t.input.origin == PartitionRef(1, partition)


def test_enumeration_requires_intact_upstream():
    state, dfs, _store = make_state()
    state.seed_input()
    js = fabricate_job(state, dfs, 1)
    js.damaged[0] = [Piece("fab-j1-p0", 1.0, 0, 1)]
    with pytest.raises(RuntimeError, match="damaged"):
        state.enumerate_map_tasks(2)


def test_missing_upstream_raises():
    state, _dfs, _store = make_state()
    state.seed_input()
    with pytest.raises(RuntimeError, match="no recorded output"):
        state.enumerate_map_tasks(2)


# -------------------------------------------------------------- damage
def test_note_node_death_marks_and_removes_pieces():
    state, dfs, store = make_state()
    state.seed_input()
    fabricate_job(state, dfs, 1)
    store.register(MapOutputMeta(1, 0, node=1, size=10.0))
    lost = state.note_node_death(1)
    assert lost
    assert state.damaged_jobs() == [1]
    js = state.jobs[1]
    assert 1 not in js.layout  # partition 1 lived on node 1
    assert js.damaged[1][0].file == "fab-j1-p1"
    assert store.get(1, 0) is None  # persisted outputs on node 1 dropped


def test_note_node_death_without_losses():
    state, dfs, _store = make_state()
    state.seed_input()
    assert state.note_node_death(2) is False
    assert state.damaged_jobs() == []


# -------------------------------------------------------- recompute plans
def test_recompute_plan_minimum_work():
    state, dfs, store = make_state()
    state.seed_input()
    # job 1's output lives off node 1, so killing node 1 damages only job 2
    fabricate_job(state, dfs, 1, nodes=[0, 2, 3])
    # persist all four consumer map outputs of job 2; then lose node 1
    for p in range(4):
        store.register(MapOutputMeta(2, p * STRIDE, node=p,
                                     size=64 * MB,
                                     origin=PartitionRef(1, p)))
    fabricate_job(state, dfs, 2)
    state.note_node_death(1)
    plan = state.build_recompute_plan(2)
    assert plan.kind == "recompute"
    # only the map output persisted on node 1 is re-executed
    assert [t.task_id for t in plan.map_tasks] == [1 * STRIDE]
    # the three outputs persisted on surviving nodes 0, 2, 3 are reused
    assert len(plan.reused_map_outputs) == 3
    assert {r.node for r in plan.reused_map_outputs} == {0, 2, 3}
    # reducers: only the lost partition, split over survivors (auto = 2)
    partitions = {t.partition for t in plan.reduce_tasks}
    assert partitions == {1}
    assert sum(t.fraction for t in plan.reduce_tasks) == pytest.approx(1.0)
    assert plan.split_partitions == {1}


def test_recompute_plan_without_damage_raises():
    state, dfs, _store = make_state()
    state.seed_input()
    fabricate_job(state, dfs, 1)
    with pytest.raises(ValueError, match="no damage"):
        state.build_recompute_plan(1)


def test_no_split_strategy_single_reducer():
    state, dfs, _store = make_state(strategy=strategies.RCMP_NOSPLIT)
    state.seed_input()
    fabricate_job(state, dfs, 1)
    state.note_node_death(2)
    plan = state.build_recompute_plan(1)
    assert len(plan.reduce_tasks) == 1
    assert plan.reduce_tasks[0].fraction == 1.0
    assert plan.split_partitions == frozenset()


def test_min_rerun_mappers_forces_extra_work():
    state, dfs, store = make_state()
    state.seed_input()
    # complete job 1 state with persisted outputs on nodes 0..3
    fabricate_job(state, dfs, 1)
    for i in range(16):
        store.register(MapOutputMeta(1, i, node=i % 4, size=16 * MB))
    state.note_node_death(3)
    baseline = state.build_recompute_plan(1)
    forced = state.build_recompute_plan(1, min_rerun_mappers=10)
    assert len(forced.map_tasks) == 10
    assert len(forced.map_tasks) > len(baseline.map_tasks)
    assert len(forced.reused_map_outputs) < len(baseline.reused_map_outputs)


def test_reset_clears_everything():
    state, dfs, store = make_state()
    state.seed_input()
    fabricate_job(state, dfs, 1)
    store.register(MapOutputMeta(1, 0, node=0, size=1.0))
    state.note_node_death(0)
    state.reset()
    assert state.jobs == {}
    assert len(store) == 0
    assert state.completed_through == 0
