"""End-to-end DAG execution and recovery across both backends.

The linear-chain matrix lives in ``test_runtime_process``; this suite
covers non-linear dependency graphs — the shapes ``--dag`` exposes —
end to end:

* wave scheduling: independent jobs of one dependency level dispatch as
  a single combined wave (``map-2+3`` phases) and recover the same way;
* graph-cut recovery: a kill mid-DAG recomputes only the damaged
  branches, in topological levels, with sibling branches untouched;
* multi-sink output: the cuboid lattice's final result is the union of
  every sink job's partitions, keyed per sink band;
* the differential matrix: diamond and data-cube runs under single and
  double kills must reproduce the failure-free in-process checksum
  byte-for-byte for every strategy.
"""

import pytest

from repro.localexec import LocalCluster, LocalJobConfig, recover_and_finish
from repro.obs import RecordingTracer
from repro.runtime.coordinator import Coordinator, RuntimeConfig
from repro.runtime.recovery import STRIDE
from repro.runtime.storage import chain_checksum
from repro.workloads import cube_dependencies, cuboids, shape_dependencies
from repro.workloads.chain import ChainJobSpec, ChainSpec
from tests.test_runtime_process import (
    KillAt,
    KillPlan,
    reference_checksum,
    run_process_chain,
    spans,
)

DIAMOND = LocalJobConfig(n_jobs=4, n_partitions=4, records_per_node=48,
                         records_per_block=16, split_ratio=2, seed=0,
                         dependencies=shape_dependencies("diamond"))
CUBE3 = LocalJobConfig(n_jobs=8, n_partitions=4, records_per_node=48,
                       records_per_block=16, split_ratio=2, seed=0,
                       dependencies=cube_dependencies(3))


def reference_output(config, n_nodes=4):
    cluster = LocalCluster(n_nodes, config)
    for job in range(1, config.n_jobs + 1):
        cluster.run_job(job)
    return cluster.final_output()


# ------------------------------------------------------------- spec guards
def test_every_entry_point_rejects_malformed_dependencies():
    """Reject-or-run must be exhaustive: a malformed ``depends_on`` spec
    raises ``ValueError`` at config construction, before any entry point
    (CLI, service submit, coordinator, localexec, the simulator's
    ``ChainSpec``) could silently run it as a linear chain — or, for a
    duplicate edge, map one upstream output twice."""
    malformed = [
        ((), (1, 1), (1,)),   # duplicate edge
        ((), (3,), (1,)),     # forward edge
        ((), (2,), (1,)),     # self edge
        ((1,), (1,), (2,)),   # job 1 depending on itself
        ((), (1,)),           # wrong length
    ]
    for deps in malformed:
        with pytest.raises(ValueError):
            LocalJobConfig(n_jobs=3, dependencies=deps)
        with pytest.raises(ValueError):
            ChainSpec(n_jobs=3, jobs=tuple(ChainJobSpec(depends_on=d)
                                           for d in deps))
    with pytest.raises(ValueError):
        shape_dependencies("mobius")
    with pytest.raises(ValueError):
        shape_dependencies("diamond:7")  # takes no parameter
    with pytest.raises(ValueError):
        cuboids(0)


def test_cube_lattice_structure():
    assert cuboids(2) == [(0, 1), (0,), (1,), ()]
    assert cube_dependencies(3) == \
        ((), (1,), (1,), (1,), (2,), (2,), (3,), (5,))
    graph = CUBE3.graph()
    assert graph.sinks() == (4, 6, 7, 8)
    assert graph.topo_levels(range(1, 9)) == \
        [[1], [2, 3, 4], [5, 6, 7], [8]]


# ------------------------------------------------------ in-process backend
def test_localexec_multi_sink_output_bands():
    # single sink: plain partition keys, checksums unchanged
    assert set(reference_output(DIAMOND)) == set(range(4))
    # three sinks (jobs 2, 3, 4): each sink's partitions get their own
    # STRIDE band, in sink order
    fanout = LocalJobConfig(n_jobs=4, n_partitions=4, records_per_node=48,
                            records_per_block=16, seed=0,
                            dependencies=shape_dependencies("fanout:3"))
    assert set(reference_output(fanout)) == \
        {pos * STRIDE + p for pos in range(3) for p in range(4)}


def test_localexec_incomplete_sink_is_an_error():
    cluster = LocalCluster(4, DIAMOND)
    cluster.run_job(1)
    with pytest.raises(RuntimeError, match="sink job"):
        cluster.final_output()


@pytest.mark.parametrize("config", [DIAMOND, CUBE3],
                         ids=["diamond", "cube3"])
def test_localexec_dag_kill_recovery_byte_identical(config):
    expected = chain_checksum(reference_output(config))
    cluster = LocalCluster(4, config)
    for job in range(1, config.n_jobs + 1):
        cluster.run_job(job)
    cluster.kill(1)
    recover_and_finish(cluster)
    assert chain_checksum(cluster.final_output()) == expected


def test_localexec_mid_lattice_kill_recovers():
    cluster = LocalCluster(4, CUBE3)
    for job in range(1, 6):
        cluster.run_job(job)
    cluster.kill(2)
    recover_and_finish(cluster)
    assert chain_checksum(cluster.final_output()) == \
        chain_checksum(reference_output(CUBE3))


# -------------------------------------------------------- process backend
def test_process_diamond_runs_in_waves_and_matches_inproc(tmp_path):
    tracer = RecordingTracer()
    report = run_process_chain(tmp_path, chain=DIAMOND, tracer=tracer)
    assert report.checksum == reference_checksum(DIAMOND)
    # the independent branch jobs 2 and 3 dispatched as one wave...
    assert any(e["args"].get("phase") == "map-2+3"
               for e in spans(tracer, "task"))
    # ...and committed with the same wave wall time
    walls = {j: w for j, _, w in report.job_times}
    assert walls[2] == walls[3]
    assert [j for j, _, _ in report.job_times] == [1, 2, 3, 4]


def test_process_dag_kill_recomputes_branches_in_parallel(tmp_path):
    """A node death after job 3 damages all three committed diamond
    jobs: recovery must recompute in topological levels — the shared
    producer first, then both branches as one combined wave whose tasks
    really interleave across workers."""
    tracer = RecordingTracer()
    hooks = KillAt("job-commit", job=3, victims=[1])
    report = run_process_chain(tmp_path, chain=DIAMOND, hooks=hooks,
                               tracer=tracer)
    assert report.checksum == reference_checksum(DIAMOND)
    assert [n for _, n in report.deaths] == [1]
    assert [(j, k) for j, k, _ in report.job_times if k == "recompute"] \
        == [(1, "recompute"), (2, "recompute"), (3, "recompute")]
    wave = [e for e in spans(tracer, "task")
            if e["args"].get("phase", "").endswith("-2+3")]
    assert wave, "branches 2 and 3 must recompute as one combined wave"
    assert len({e["tid"] for e in wave}) >= 2  # spread over workers
    # trace-verified overlap: both branch recompute spans open at once
    jspans = {e["name"]: e for e in spans(tracer, "job")}
    a, b = jspans["job-2-recompute"], jspans["job-3-recompute"]
    assert a["ts"] < b["ts"] + b["dur"] and b["ts"] < a["ts"] + a["dur"]


def test_cube_branch_damage_cascades_only_that_branch(tmp_path):
    """The planner cut on the real coordinator: damage confined to one
    lattice branch recomputes that branch alone, and mid-lattice damage
    behind done intact consumers recomputes nothing."""
    run = Coordinator(RuntimeConfig(n_nodes=4, chain=CUBE3),
                      tmp_path / "cluster").chain_run
    run.done_jobs = set(range(1, 9))
    # branch 1 -> 3 -> 7 loses pieces; branches through 2 are untouched
    run.registry.damage = {3: {0: [(0, 1)]}, 7: {0: [(0, 1)]}}
    assert run._cascade_jobs() == [3, 7]
    # damage shielded by done, intact consumers is outside the cut
    run.registry.damage = {2: {0: [(0, 1)]}}
    assert run._cascade_jobs() == []


# --------------------------------------------------- differential matrix
@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["rcmp", "optimistic", "repl2",
                                      "hybrid"])
@pytest.mark.parametrize("scenario", ["single", "double"])
@pytest.mark.parametrize("shape", ["diamond", "cube"])
def test_dag_differential_matrix(tmp_path, shape, scenario, strategy):
    """The DAG columns of the acceptance matrix: diamond and data-cube
    runs under mid-DAG single and spaced double kills must reproduce
    the failure-free in-process checksum byte-for-byte under every
    strategy."""
    chain = {"diamond": DIAMOND, "cube": CUBE3}[shape]
    mid = {"diamond": 2, "cube": 5}[shape]
    triggers = {"single": [("job-commit", mid, 1)],
                "double": [("job-commit", 1, 1),
                           ("job-commit", mid, 2)]}[scenario]
    hooks = KillPlan(*triggers)
    victims = hooks.victims
    report = run_process_chain(tmp_path, chain=chain, hooks=hooks,
                               strategy=strategy)
    assert report.checksum == reference_checksum(chain)
    assert sorted(n for _, n in report.deaths) == victims
    assert report.strategy == strategy


@pytest.mark.slow
def test_cube_clean_run_schedules_by_level(tmp_path):
    tracer = RecordingTracer()
    report = run_process_chain(tmp_path, chain=CUBE3, tracer=tracer)
    assert report.checksum == reference_checksum(CUBE3)
    phases = {e["args"].get("phase") for e in spans(tracer, "task")}
    assert {"map-1", "map-2+3+4", "map-5+6+7", "map-8"} <= phases


@pytest.mark.slow
def test_checksum_from_bytes_on_split_recomputed_sinks(tmp_path):
    """A kill after three of the cube's four sinks committed damages the
    sinks themselves: their lost partitions come back as split pieces,
    so the final checksum mixes both paths — stored bytes for one-piece
    partitions, decode and sort for split ones — and must still equal
    its definition and the failure-free reference."""
    hooks = KillAt("job-commit", job=7, victims=[1])
    config = RuntimeConfig(n_nodes=4, chain=CUBE3)
    with Coordinator(config, tmp_path / "cluster", hooks=hooks) as coord:
        hooks.coord = coord
        report = coord.run_chain()
        pieces = coord.chain_run.registry.pieces
        assert {len(plist) for sink in CUBE3.graph().sinks()
                for plist in pieces[sink].values()} == \
            {1, CUBE3.split_ratio}
        assert report.checksum == coord.checksum() == \
            chain_checksum(coord.final_output()) == \
            reference_checksum(CUBE3)


@pytest.mark.slow
def test_cube_hybrid_with_reclaim_kill_recovers(tmp_path):
    hooks = KillAt("job-commit", job=6, victims=[2])
    report = run_process_chain(tmp_path, chain=CUBE3, hooks=hooks,
                               strategy="hybrid", hybrid_interval=2,
                               hybrid_reclaim=True)
    assert report.checksum == reference_checksum(CUBE3)
    assert [n for _, n in report.deaths] == [2]
