"""Tests for DAG-shaped multi-job computations (paper §I, §IV-A)."""

import pytest

from repro.cluster import presets
from repro.cluster.topology import Cluster
from repro.core import strategies
from repro.core.middleware import Middleware, run_chain
from repro.dfs import DistributedFileSystem
from repro.runtime.recovery import cascade_jobs
from repro.simcore import SeedSequenceRegistry, Simulator
from repro.workloads import dag
from repro.workloads.chain import ChainJobSpec, ChainSpec

MB = 1 << 20


def small(builder, **kw):
    return builder(per_node_input=256 * MB, block_size=64 * MB, **kw)


# -------------------------------------------------------------- structure
def test_linear_chain_dependencies_unchanged():
    from repro.workloads.chain import build_chain
    chain = build_chain(n_jobs=3)
    assert chain.dependencies(1) == ()
    assert chain.dependencies(2) == (1,)
    assert chain.dependencies(3) == (2,)
    assert chain.graph.consumers(1) == (2,)


def test_diamond_structure():
    d = small(dag.diamond)
    assert d.n_jobs == 4
    assert d.dependencies(1) == ()
    assert d.dependencies(2) == (1,)
    assert d.dependencies(3) == (1,)
    assert d.dependencies(4) == (2, 3)
    assert d.graph.consumers(1) == (2, 3)


def test_fan_shapes():
    fi = small(dag.fan_in, k=3)
    assert fi.dependencies(4) == (1, 2, 3)
    fo = small(dag.fan_out, k=3)
    assert fo.graph.consumers(1) == (2, 3, 4)
    with pytest.raises(ValueError):
        dag.fan_in(k=1)
    with pytest.raises(ValueError):
        dag.fan_out(k=1)


def test_binary_tree_structure():
    t = small(dag.binary_tree, depth=2)
    # 4 leaves + 2 joins + root = 7 jobs
    assert t.n_jobs == 7
    assert t.dependencies(5) == (1, 2)
    assert t.dependencies(6) == (3, 4)
    assert t.dependencies(7) == (5, 6)


def test_forward_dependency_rejected():
    with pytest.raises(ValueError):
        ChainSpec(n_jobs=2, jobs=(
            ChainJobSpec(depends_on=(2,)), ChainJobSpec(depends_on=())))


# -------------------------------------------------------------- execution
@pytest.mark.parametrize("builder,kw", [
    (dag.diamond, {}),
    (dag.fan_in, {"k": 2}),
    (dag.fan_out, {"k": 2}),
    (dag.binary_tree, {"depth": 1}),
])
def test_dag_runs_failure_free(builder, kw):
    chain = small(builder, **kw)
    result = run_chain(presets.tiny(4), strategies.RCMP, chain=chain)
    assert result.completed
    assert result.jobs_started == chain.n_jobs


def test_diamond_recovers_from_failure():
    chain = small(dag.diamond)
    result = run_chain(presets.tiny(4), strategies.RCMP, chain=chain,
                       failures="4")  # fails during the join
    assert result.completed
    # the cascade regenerates the damaged ancestors of job 4 (jobs 1-3
    # each lost a partition on the dead node)
    recomputed = {j.logical_index for j in
                  result.metrics.jobs_of_kind("recompute")}
    assert recomputed == {1, 2, 3}


def run_middleware(chain, strategy, failures=None, seed=0, n_nodes=4):
    """``run_chain``, also returning the middleware for its final state."""
    sim = Simulator()
    cluster = Cluster(sim, presets.tiny(n_nodes), SeedSequenceRegistry(seed))
    middleware = Middleware(cluster,
                            DistributedFileSystem(cluster, chain.block_size),
                            chain, strategy, failures)
    proc = sim.process(middleware.run(), name="middleware")
    sim.run()
    return proc.value, middleware


@pytest.mark.parametrize("seed", range(4))
def test_fan_out_failure_recomputes_the_damaged_sibling_sink(seed):
    """A failure while consumer job 3 runs damages job 1 and the finished
    sibling job 2.  Job 2 is a sink, its output a final result, so the
    shared cascade (§IV-A) recomputes it too, as the live runtime does:
    a completed run never leaves a damaged sink behind."""
    chain = small(dag.fan_out, k=3)
    result, middleware = run_middleware(chain, strategies.RCMP,
                                        failures="3", seed=seed)
    assert result.completed
    recomputed = {j.logical_index for j in
                  result.metrics.jobs_of_kind("recompute")}
    assert {1, 2} <= recomputed
    assert not set(middleware.state.damaged_jobs()) & \
        set(chain.graph.sinks())


def test_hybrid_anchors_skip_sinks():
    """§IV-C anchors are every k-th job *with a consumer*: on fan_out(3)
    job 2 is a sink, so ``hybrid_interval=2`` replicates nothing, while
    interval 1 replicates the shared producer (job 1) only."""
    chain = small(dag.fan_out, k=3)
    plain, _ = run_middleware(chain, strategies.RCMP)
    every_2nd, _ = run_middleware(chain, strategies.rcmp(hybrid_interval=2))
    every_job, _ = run_middleware(chain, strategies.rcmp(hybrid_interval=1))
    assert every_2nd.dfs_bytes == plain.dfs_bytes
    assert every_job.dfs_bytes > plain.dfs_bytes


def test_dag_double_failure():
    chain = small(dag.binary_tree, depth=2)
    result = run_chain(presets.tiny(5), strategies.RCMP, chain=chain,
                       failures="6,8")
    assert result.completed


def test_repl_baseline_on_dag():
    chain = small(dag.diamond)
    result = run_chain(presets.tiny(4), strategies.REPL2, chain=chain,
                       failures="4")
    assert result.completed
    assert result.jobs_started == 4  # replication absorbs it within-job


def test_cascade_minimality_on_diamond():
    """The cascade stops at intact outputs: with job 2's output
    replicated (hybrid point), a failure during job 4 must not recompute
    job 2, but job 3 (single-replicated) still cascades."""
    from repro.core.lineage import ChainState
    from repro.core.persistence import PersistedStore

    chain = small(dag.diamond)
    sim = Simulator()
    cluster = Cluster(sim, presets.tiny(4), SeedSequenceRegistry(0))
    dfs = DistributedFileSystem(cluster, chain.block_size)
    state = ChainState(chain, cluster, dfs, PersistedStore(),
                       strategies.RCMP)
    # fabricate completed jobs 1..3 with single-piece layouts
    from repro.core.lineage import Piece, _JobState
    for j in (1, 2, 3):
        js = _JobState()
        for p in range(2):
            name = f"j{j}p{p}"
            dfs.create_placed(name, 64 * MB, locations=[p])
            js.layout[p] = [Piece(name, 1.0, 0, 1)]
        state.jobs[j] = js
    # damage jobs 1 and 3 (not 2)
    state.jobs[1].damaged[0] = [Piece("j1p0", 1.0, 0, 1)]
    state.jobs[3].damaged[0] = [Piece("j3p0", 1.0, 0, 1)]
    cascade = cascade_jobs(chain.graph, range(1, 4), state.damaged_jobs())
    # job 4 depends on (2, 3): 2 intact -> branch stops; 3 damaged -> its
    # dep 1 is damaged too -> cascade = [1, 3]
    assert cascade == [1, 3]
