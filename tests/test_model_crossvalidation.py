"""Cross-validation: the simulator against §IV's closed-form model, and
against the live multi-process runtime.

The paper's wave arithmetic must fall out of the simulated execution: the
map phase really runs in ceil(tasks / (N*S)) waves, a recomputation run
really re-executes ~1/N of the work, and the recomputed mappers fit in
ceil(WM / (N-1)) waves when spread over the survivors.  Both executors
plan recovery with the one shared planner, so under the same kill they
must recompute the same jobs.
"""

import numpy as np
import pytest

from repro.analysis.model import (
    recomputation_waves,
    recomputed_fraction,
    waves,
)
from repro.cluster import presets
from repro.core import strategies
from repro.core.middleware import run_chain
from repro.faults import FaultModel
from repro.localexec import LocalJobConfig
from repro.runtime.coordinator import Coordinator, RuntimeConfig
from repro.workloads import cube, dag, shape_dependencies
from repro.workloads.chain import build_chain

MB = 1 << 20


def observed_waves(job, slots=1, task_type="map"):
    """Waves actually executed: the busiest node's task count divided by
    its concurrent slots."""
    per_node = {}
    for t in job.tasks:
        if t.task_type == task_type and t.outcome == "done":
            per_node.setdefault(t.node, []).append((t.start, t.end))
    most = max((len(v) for v in per_node.values()), default=0)
    return -(-most // slots)  # ceil


@pytest.mark.parametrize("slots,blocks_per_node", [((1, 1), 4), ((2, 2), 4),
                                                   ((1, 1), 6)])
def test_map_waves_match_model(slots, blocks_per_node):
    n_nodes = 4
    chain = build_chain(n_jobs=1, per_node_input=blocks_per_node * 64 * MB,
                        block_size=64 * MB)
    result = run_chain(presets.tiny(n_nodes, slots), strategies.RCMP,
                       chain=chain)
    job = result.metrics.jobs[0]
    n_tasks = blocks_per_node * n_nodes
    predicted = waves(n_tasks, n_nodes, slots[0])
    # randomized replica placement makes locality approximate: the busiest
    # node runs within one wave of the balanced prediction
    assert predicted <= observed_waves(job, slots[0]) <= predicted + 1


def test_recomputed_fraction_is_one_over_n():
    n_nodes = 5
    chain = build_chain(n_jobs=3, per_node_input=256 * MB,
                        block_size=64 * MB)
    result = run_chain(presets.tiny(n_nodes), strategies.RCMP, chain=chain,
                       failures="3")
    full_maps = 4 * n_nodes
    for job in result.metrics.jobs_of_kind("recompute"):
        executed = len(job.task_durations("map"))
        expected = recomputed_fraction(n_nodes) * full_maps
        # ~the dead node's mappers; random replica placement makes the
        # node's share of mappers approximate, and Fig. 5 invalidations
        # can add the split partition's other consumers
        assert 0.5 * expected <= executed <= 2 * expected + 1


def test_recomputation_map_waves_bound():
    """§IV-B: the recomputed mappers, spread over N-1 survivors, need at
    most ceil(WM / (N-1)) waves."""
    n_nodes = 4
    blocks_per_node = 6   # WM = 6 with 1 slot
    chain = build_chain(n_jobs=2, per_node_input=blocks_per_node * 64 * MB,
                        block_size=64 * MB)
    result = run_chain(presets.tiny(n_nodes), strategies.RCMP, chain=chain,
                       failures="2")
    bound = recomputation_waves(blocks_per_node, n_nodes)
    for job in result.metrics.jobs_of_kind("recompute"):
        assert observed_waves(job) <= bound


def test_shuffle_traffic_fraction():
    """Recomputing 1/N of reducers moves ~1/N of the shuffle bytes."""
    n_nodes = 5
    chain = build_chain(n_jobs=2, per_node_input=256 * MB,
                        block_size=64 * MB)
    result = run_chain(presets.tiny(n_nodes), strategies.RCMP, chain=chain,
                       failures="2")
    initial = result.metrics.jobs[0]
    init_bytes = sum(t.bytes_in for t in initial.tasks
                     if t.task_type == "reduce")
    for job in result.metrics.jobs_of_kind("recompute"):
        rec_bytes = sum(t.bytes_in for t in job.tasks
                        if t.task_type == "reduce" and t.outcome == "done")
        assert rec_bytes == pytest.approx(init_bytes / n_nodes, rel=0.05)


def test_speedup_bounded_by_ideal():
    """Measured recomputation speed-up never exceeds the data-parallel
    ideal of (roughly) doing 1/N of the work over N-1 nodes."""
    n_nodes = 6
    chain = build_chain(n_jobs=2, per_node_input=512 * MB,
                        block_size=64 * MB)
    result = run_chain(presets.tiny(n_nodes), strategies.RCMP, chain=chain,
                       failures="2")
    init = float(np.mean(result.metrics.job_durations("initial")))
    rec = float(np.mean(result.metrics.job_durations("recompute")))
    speedup = init / rec
    # ideal: N x less data, (N-1)-way parallel regeneration => << N*(N-1)
    assert 1.0 < speedup < n_nodes * (n_nodes - 1)

@pytest.mark.slow
@pytest.mark.parametrize("shape,build", [("diamond", dag.diamond),
                                         ("cube:3", cube)])
def test_simulator_and_live_runtime_recompute_the_same_jobs(tmp_path, shape,
                                                            build):
    """One kill during the last job, simulated on ``tiny(4)`` and real on
    4 worker processes: the jobs with a ``recompute`` run must match.
    The last job of both shapes runs alone on both executors, so they
    reach the kill with the same jobs done (``fanout:3`` would not: the
    live runtime runs its three consumers as one wave)."""
    chain = build(per_node_input=256 * MB, block_size=64 * MB)
    faults = f"kill@job{chain.n_jobs}+0:node=1"
    simulated = run_chain(presets.tiny(4), strategies.RCMP, chain=chain,
                          failures=faults)
    assert simulated.completed
    config = LocalJobConfig(n_jobs=chain.n_jobs, n_partitions=4,
                            records_per_node=48, records_per_block=16,
                            seed=0, dependencies=shape_dependencies(shape))
    with Coordinator(RuntimeConfig(n_nodes=4, chain=config), tmp_path,
                     fault_model=FaultModel.parse(faults)) as coord:
        report = coord.run_chain()
    assert report.deaths
    live = {job for job, kind, _ in report.job_times if kind == "recompute"}
    assert live == {j.logical_index for j in
                    simulated.metrics.jobs_of_kind("recompute")}
