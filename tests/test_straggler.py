"""Stragglers as first-class faults: slow events, suspicion, speculation.

Unit coverage for the ``slow`` fault grammar, the :class:`LiveFaultPlan`
throttle deadlines, the :class:`ProgressRateTracker` suspicion policy,
the pre-replication placement helper and the analyze-time speculation
table; plus end-to-end process-runtime scenarios under the ``slow``
marker (CI's ``runtime-smoke`` job): a 10x straggler under tight
heartbeats is never declared dead, backups win races through the
first-commit-wins overlay, losers' partial output is swept, and
pre-replication leaves no sole-copy piece on a suspected node.
"""

import collections
import json
import time
import warnings

import pytest

from repro.analysis.utilization import report_from_file, speculation_report
from repro.cluster import presets
from repro.cluster.topology import Cluster
from repro.core import strategies
from repro.core.middleware import run_chain
from repro.faults import FaultInjector, FaultModel
from repro.faults.detector import ProgressRateTracker
from repro.localexec import LocalJobConfig
from repro.obs import RecordingTracer
from repro.runtime.coordinator import (
    ChainRun,
    Coordinator,
    RunReport,
    RuntimeConfig,
)
from repro.runtime.faults import LiveFaultPlan
from repro.runtime.recovery import pre_replication_targets
from repro.runtime import worker as worker_mod
from repro.runtime.service import DONE, ChainService
from repro.runtime.storage import NodeStore
from repro.runtime.transport import Throttle
from repro.simcore import SeedSequenceRegistry, Simulator
from repro.workloads.chain import build_chain
from tests.test_runtime_process import (
    instants,
    on_disk_orphans,
    reference_checksum,
    run_process_chain,
)
from tests.test_runtime_shuffle import _EventSink, _map_commands

SMALL = LocalJobConfig(n_jobs=2, n_partitions=4, records_per_node=32,
                       records_per_block=16, split_ratio=2, seed=0)


# ------------------------------------------------------------ parse grammar
def test_parse_slow_shorthand():
    model = FaultModel.parse("slow@2:10")
    (ev,) = model.events
    assert ev.kind == "slow"
    assert ev.node_id == 2
    assert ev.factor == 10.0
    assert ev.at_job is None  # throttles from chain start


def test_parse_slow_general_forms():
    model = FaultModel.parse("slow@job3+5:node=1,factor=4; slow@t30:factor=2")
    onset, unpinned = model.events
    assert (onset.at_job, onset.offset, onset.node_id, onset.factor) == \
        (3, 5.0, 1, 4.0)
    assert unpinned.at_time == 30.0
    assert unpinned.node_id is None  # victim drawn by the seeded RNG
    assert unpinned.factor == 2.0


@pytest.mark.parametrize("spec", [
    "slow@2",                 # missing factor
    "slow@2:1",               # 1x slow is not slow
    "slow@2:0.5",             # speed-ups are not faults
    "slow@2:10,down=5",       # slow keeps the node up
    "slow@2:10,wipe",         # ... with its data
    "slow@t10:rack=0,factor=2",  # slow pins a node, not a rack
    "kill@t10:factor=2",      # factor is slow-only
])
def test_parse_rejects_malformed_slow(spec):
    with pytest.raises(ValueError):
        FaultModel.parse(spec)


def test_conflicting_slow_factors_on_one_node_are_an_error():
    with pytest.raises(ValueError, match="conflicting slow factors"):
        FaultModel.parse("slow@1:2; slow@1:4")
    # identical duplicates merge instead
    model = FaultModel.parse("slow@1:4; slow@1:4")
    assert len(model.events) == 1


def test_slow_is_not_a_stochastic_kind():
    with pytest.raises(ValueError):
        FaultModel.parse("mtbf=600:slow,max=4")


def test_legacy_fail_notation_still_parses():
    model = FaultModel.parse("2,7")
    assert [ev.at_job for ev in model.events] == [2, 7]
    assert all(ev.kind == "fail-stop" for ev in model.events)
    # and composes with slow clauses through the same front door
    mixed = FaultModel.parse("slow@1:3; kill@job2+5")
    assert sorted(ev.kind for ev in mixed.events) == ["fail-stop", "slow"]


# ------------------------------------------------------------ live plan
def test_due_throttles_pops_slow_and_due_never_does():
    plan = LiveFaultPlan(FaultModel.parse("slow@1:4; kill@t10"))
    plan.arm_chain_start(0.0)
    alive = {0, 1, 2}
    victims = plan.due(100.0, alive)  # unpinned kill, seeded draw
    assert len(victims) == 1 and victims[0] in alive
    assert plan.due(100.0, alive) == []
    assert plan.due_throttles(100.0, alive) == [(1, 4.0)]
    assert plan.due_throttles(100.0, alive) == []
    assert plan.exhausted


def test_due_throttles_waits_for_job_anchor_and_deadline():
    plan = LiveFaultPlan(FaultModel.parse("slow@job2+5:node=0,factor=2"))
    plan.arm_chain_start(0.0)
    assert plan.due_throttles(100.0, {0, 1}) == []  # job 2 never started
    plan.arm_job_start(2, 100.0)
    assert plan.due_throttles(104.0, {0, 1}) == []  # before the deadline
    assert plan.due_throttles(105.0, {0, 1}) == [(0, 2.0)]


def test_unpinned_slow_victim_is_seeded():
    def pick(seed):
        plan = LiveFaultPlan(FaultModel.parse("slow@t0:factor=2"), seed=seed)
        plan.arm_chain_start(0.0)
        return plan.due_throttles(1.0, range(8))

    assert pick(7) == pick(7)
    assert {pick(s)[0][0] for s in range(20)} != {pick(7)[0][0]}


# ------------------------------------------------------------ suspicion
def tracker(**kw):
    kw.setdefault("window", 1.0)
    kw.setdefault("ratio", 3.0)
    kw.setdefault("min_commits", 3)
    return ProgressRateTracker(**kw)


def test_progress_tracker_suspects_the_lagging_node():
    t = tracker()
    t.record_dispatch(1, 0.0)  # node 1's task never commits
    for i in range(6):  # nodes 0 and 2 commit 0.1s tasks briskly
        t.record_dispatch(0, 0.1 * i), t.record_commit(0, 0.1 * i + 0.1)
        t.record_dispatch(2, 0.1 * i), t.record_commit(2, 0.1 * i + 0.1)
    # node 1's task is younger than ratio x median (3 x 0.1s): healthy
    assert t.suspects(0.25, alive={0, 1, 2}) == set()
    # ... but once it outlives the threshold it is a straggler — and a
    # fleet that finished its share and went idle still anchors the
    # baseline (no commits needed at verdict time)
    assert t.suspects(0.7, alive={0, 1, 2}) == {1}


def test_progress_tracker_warm_up_guard():
    t = tracker(min_commits=5)
    t.record_dispatch(1, 0.0)
    t.record_dispatch(0, 0.0)
    t.record_commit(0, 0.01)  # one commit is not a fleet baseline
    assert t.suspects(1.0, alive={0, 1}) == set()


def test_progress_tracker_idle_node_is_not_suspect():
    t = tracker()
    for i in range(6):
        t.record_dispatch(0, 0.1 * i)
        t.record_commit(0, 0.1 * i + 0.1)
    # node 1 lags but has nothing in flight: nothing to speculate on
    assert t.suspects(0.9, alive={0, 1}) == set()


def test_progress_tracker_floors_the_age_threshold():
    """Millisecond tasks: ratio x median is microscopic, and scheduler
    jitter alone must not suspect a healthy node."""
    t = tracker()
    for i in range(6):
        t.record_dispatch(0, 0.001 * i)
        t.record_commit(0, 0.001 * i + 0.001)
    t.record_dispatch(1, 0.0)
    assert t.suspects(0.04, alive={0, 1}) == set()  # under the 50ms floor
    assert t.suspects(0.06, alive={0, 1}) == {1}


def test_progress_tracker_settled_and_forget_clear_load():
    t = tracker()
    t.record_dispatch(1, 0.0)
    assert t.load(1) == 1
    t.record_settled(1)  # task-failed: slot freed, no progress counted
    assert t.load(1) == 0
    t.record_dispatch(2, 0.0)
    t.forget(2)
    assert t.load(2) == 0
    t.record_dispatch(3, 0.0)
    t.clear_outstanding()  # epoch bump cancels every in-flight dispatch
    assert t.load(3) == 0


def test_progress_tracker_window_prunes_old_commits():
    t = tracker(window=1.0)
    for i in range(4):
        t.record_commit(0, float(i) / 10)
    assert t.rate(0, 0.5) == 4.0
    assert t.rate(0, 5.0) == 0.0


@pytest.mark.parametrize("kw", [
    dict(window=0.0), dict(ratio=1.0), dict(min_commits=0),
])
def test_progress_tracker_validates_knobs(kw):
    with pytest.raises(ValueError):
        tracker(**kw)


# ------------------------------------------------------------ config
@pytest.mark.parametrize("kw", [
    dict(speculation_slowdown=1.0),
    dict(speculation_min_age=-0.1),
    dict(suspect_window=0.0),
    dict(suspect_ratio=1.0),
    dict(suspect_min_commits=0),
])
def test_runtime_config_validates_straggler_knobs(kw):
    with pytest.raises(ValueError):
        RuntimeConfig(n_nodes=2, chain=SMALL, **kw)


def test_one_node_cluster_warns_and_disables_speculation():
    with pytest.warns(UserWarning, match="no healthy peer"):
        config = RuntimeConfig(n_nodes=1, chain=SMALL,
                               speculation=True, pre_replicate=True)
    assert config.speculation is False
    assert config.pre_replicate is False


# ------------------------------------------------------------ throttle
def test_throttle_set_rejects_speed_ups():
    throttle = Throttle()
    assert throttle.factor == 1.0
    with pytest.raises(ValueError):
        throttle.set(0.5)
    throttle.set(3.0)
    assert throttle.factor == 3.0


def test_throttle_pace_stretches_elapsed_time():
    throttle = Throttle(3.0)
    start = time.monotonic()
    throttle.pace(0.01)  # 10 ms of work -> ~20 ms of extra sleep
    assert time.monotonic() - start >= 0.015
    throttle.set(1.0)
    start = time.monotonic()
    throttle.pace(10.0)  # 1x never sleeps, however long the work was
    assert time.monotonic() - start < 0.5


def test_a_throttled_run_stretches_every_commit_not_the_first(
        tmp_path, monkeypatch):
    """A run's map pass is computed once but charged to its tasks pro
    rata by rows, so a ``slow@`` node paces *every* commit of the run by
    its factor — not the first by the whole pass and the rest by their
    few hundred microseconds of commit."""
    n, rows, pass_s = 4, 8, 0.08
    real = worker_mod.map_batch

    def slow_pass(*args):
        time.sleep(pass_s)
        return real(*args)

    monkeypatch.setattr(worker_mod, "map_batch", slow_pass)
    charged = []

    class Recorder(Throttle):
        def pace(self, elapsed):
            charged.append(elapsed)

    worker = worker_mod._Worker(
        0, NodeStore(tmp_path, 0), _EventSink(), seed=0,
        records_per_node=n * rows, value_size=16, throttle=Recorder(10.0))
    try:
        cmds = _map_commands(range(n), rows)
        worker.dispatch(cmds[0], collections.deque(cmds[1:]))
    finally:
        worker.close()
    assert [e.kind for e in worker.evt.sent] == ["map-done"] * n
    assert len(charged) == n
    assert all(share >= 0.9 * pass_s / n for share in charged)
    assert pass_s <= sum(charged) < 2 * pass_s + 1.0


# ------------------------------------------------------- placement policy
def test_pre_replication_targets_prefer_healthy_non_holders():
    entries = [((1, p, 0, 1), {1}) for p in range(4)]
    targets = pre_replication_targets(entries, suspected={1},
                                      alive={0, 1, 2, 3})
    # round-robin over the healthy non-holders, never the straggler
    assert set(targets) == {key for key, _ in entries}
    assert sorted(set(targets.values())) == [0, 2, 3]


def test_pre_replication_targets_fall_back_to_suspected_peers():
    # every non-holder is itself suspected: any second copy still beats
    # leaving the sole replica on the straggler
    targets = pre_replication_targets([(("k",), {1})], suspected={1, 2},
                                      alive={1, 2})
    assert targets == {("k",): 2}
    # ... but a fully-held piece has nowhere to go
    assert pre_replication_targets([(("k",), {1, 2})], suspected={1},
                                   alive={1, 2}) == {}


# ------------------------------------------------------------ simulator
def test_sim_injector_records_slow_without_killing():
    sim = Simulator()
    cluster = Cluster(sim, presets.tiny(4), SeedSequenceRegistry(0))
    struck = []
    injector = FaultInjector(
        cluster, FaultModel.parse("slow@1:4"),
        on_fault=lambda node, ev: pytest.fail(
            "slow must never reach the kill callback"),
        on_slow=lambda node, ev: struck.append((node.node_id, ev.factor)))
    sim.run()
    assert injector.slowed == {1: 4.0}
    assert struck == [(1, 4.0)]
    assert injector.killed == []
    assert cluster.nodes[1].alive


def test_sim_run_chain_treats_slow_as_recorded_noop():
    """The middleware does not wire ``on_slow``: a sim run with a slow
    plan completes with no kills and the fault-free runtime."""
    chain = build_chain(n_jobs=2)
    kw = dict(chain=chain, seed=3)
    baseline = run_chain(presets.tiny(4), strategies.RCMP, **kw)
    slowed = run_chain(presets.tiny(4), strategies.RCMP,
                       failures="slow@1:4", **kw)
    assert slowed.completed
    assert slowed.killed_nodes == []
    assert slowed.total_runtime == baseline.total_runtime


# ------------------------------------------------------------ reporting
def _instant(name, **args):
    return {"ph": "i", "name": name, "args": args}


SPEC_EVENTS = [
    _instant("node-throttled", node=1, factor=10.0),
    _instant("suspected-slow", node=1),
    _instant("speculative-attempt", original=1, backup=2),
    _instant("speculative-result", winner=2, loser=1),
    _instant("speculation-loser", node=1, wasted=512),
    _instant("speculation-swept", node=1, freed=256),
    _instant("pre-replicate", pieces=3),
]


def test_speculation_report_aggregates_per_node():
    report = speculation_report(SPEC_EVENTS)
    lines = report.splitlines()
    assert lines[0] == "== straggler / speculation =="
    (row1,) = [ln for ln in lines if ln.startswith("1 ")]
    assert row1.split() == ["1", "10", "1", "1", "0", "0", "512", "256"]
    (row2,) = [ln for ln in lines if ln.startswith("2 ")]
    assert row2.split() == ["2", "-", "0", "0", "1", "1", "0", "0"]
    assert "pre-replicated pieces: 3" in report
    assert speculation_report([]) == ""
    assert speculation_report([{"ph": "X", "name": "task"}]) == ""


def test_report_from_file_appends_speculation_table(tmp_path):
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for ev in SPEC_EVENTS:
            fh.write(json.dumps(ev) + "\n")
    report = report_from_file(str(path))
    assert "== straggler / speculation ==" in report


def test_run_report_carries_speculation():
    report = RunReport(checksum="abc", speculation={
        "attempts": 2, "wins": 1, "wasted_bytes": 64,
        "pre_replicated": 0, "throttled": {1: 10.0}})
    assert report.to_dict()["speculation"]["attempts"] == 2
    assert "speculation: 2 attempts, 1 wins" in report.render()
    # a straggler-free run stays silent
    assert "speculation" not in RunReport(checksum="abc").render()


def test_run_report_carries_cancelled_commits():
    report = RunReport(checksum="abc", cancelled_commits=3)
    assert report.to_dict()["cancelled_commits"] == 3
    assert report.render().splitlines()[-1] == "cancelled_commits: 3"
    clean = RunReport(checksum="abc")
    assert clean.to_dict()["cancelled_commits"] == 0
    assert "cancelled_commits" not in clean.render()


# --------------------------------------------------------------- e2e
@pytest.mark.slow
def test_slow_is_never_dead_under_tight_heartbeats(tmp_path):
    """A 10x straggler beats the heartbeat clock: throttled task loops
    must never starve the heartbeat thread into a death declaration."""
    tracer = RecordingTracer()
    report = run_process_chain(
        tmp_path, chain=SMALL, n_nodes=3, tracer=tracer,
        heartbeat_interval=0.05, heartbeat_expiry=0.3,
        fault_model=FaultModel.parse("slow@1:10"))
    assert report.checksum == reference_checksum(SMALL, 3)
    assert report.deaths == []
    assert all(kind == "run" for _, kind, _ in report.job_times)
    assert report.speculation["throttled"] == {1: 10.0}
    assert instants(tracer, "node-throttled")


@pytest.mark.slow
def test_speculation_backs_up_straggler_tasks(tmp_path):
    tracer = RecordingTracer()
    report = run_process_chain(
        tmp_path, chain=SMALL, n_nodes=4, tracer=tracer,
        task_slots=2, speculation=True, speculation_min_age=0.02,
        fault_model=FaultModel.parse("slow@1:10"))
    assert report.checksum == reference_checksum(SMALL, 4)
    assert report.deaths == []
    attempts = report.speculation["attempts"]
    assert attempts > 0
    assert len(instants(tracer, "speculative-attempt")) == attempts
    assert report.speculation["wins"] <= attempts
    # a backup always runs on a different node than the original
    assert all(ev["args"]["backup"] != ev["args"]["original"]
               for ev in instants(tracer, "speculative-attempt"))


@pytest.mark.slow
def test_first_commit_wins_and_losers_are_swept(tmp_path):
    """Duplicate completions from the slow original are ignored by the
    epoch/attempt guard and the loser's partial output is dropped: after
    the run no surviving disk holds a file the registry disowns."""
    chain = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                           records_per_block=16, split_ratio=2, seed=0)
    tracer = RecordingTracer()
    config = RuntimeConfig(n_nodes=4, chain=chain, task_slots=2,
                           speculation=True, speculation_min_age=0.02)
    with Coordinator(config, tmp_path / "cluster", tracer=tracer,
                     fault_model=FaultModel.parse("slow@1:10")) as coord:
        report = coord.run_chain()
        assert report.checksum == reference_checksum(chain, 4)
        assert report.speculation["wins"] > 0
        jobs = set(range(1, chain.n_jobs + 1))
        deadline = time.monotonic() + 5.0
        while on_disk_orphans(coord, jobs) and time.monotonic() < deadline:
            time.sleep(0.05)  # loser drops are applied asynchronously
        assert on_disk_orphans(coord, jobs) == []
    winners = {ev["args"]["winner"]
               for ev in instants(tracer, "speculative-result")}
    assert winners  # at least one race resolved
    # every ignored duplicate is accounted as wasted bytes
    assert report.speculation["wasted_bytes"] == sum(
        ev["args"]["wasted"] for ev in instants(tracer, "speculation-loser"))


@pytest.mark.slow
def test_straggler_whose_node_dies_mid_attempt(tmp_path):
    """slow composes with kill: the straggler is finally lost for real
    and normal recovery takes over — pending losers on the dead node are
    pruned instead of waited on."""
    chain = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                           records_per_block=16, split_ratio=2, seed=0)
    report = run_process_chain(
        tmp_path, chain=chain, n_nodes=4, task_slots=2,
        speculation=True, speculation_min_age=0.02,
        fault_model=FaultModel.parse("slow@1:10; kill@job3+0:node=1"))
    assert report.checksum == reference_checksum(chain, 4)
    assert [node for _, node in report.deaths] == [1]


@pytest.mark.slow
def test_cancelled_loser_originals_do_not_stall_the_chain_end(
        tmp_path, monkeypatch):
    """Backups win races against originals still *queued* on the slow
    node; a death elsewhere then bumps the epoch and the slow node skips
    those originals.  A skipped task answers ``cancelled``, so the race
    entry settles — the end-of-chain drain used to sit out its whole 2 s
    deadline waiting for events that never came."""
    chain = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=96,
                           records_per_block=16, split_ratio=2, seed=0)
    drains = []
    real_drain = ChainRun._drain_spec_losers

    def timed_drain(self, deadline=2.0):
        t0 = time.monotonic()
        real_drain(self, deadline)
        drains.append((time.monotonic() - t0, deadline))

    monkeypatch.setattr(ChainRun, "_drain_spec_losers", timed_drain)
    tracer = RecordingTracer()
    config = RuntimeConfig(n_nodes=4, chain=chain, task_slots=2,
                           speculation=True, speculation_min_age=0.02)
    with Coordinator(config, tmp_path / "cluster", tracer=tracer,
                     fault_model=FaultModel.parse(
                         "slow@1:20; kill@job2+0:node=2")) as coord:
        report = coord.run_chain()
        assert coord.chain_run._spec_losers == {}  # every race settled
    assert report.checksum == reference_checksum(chain, 4)
    assert [node for _, node in report.deaths] == [2]
    slow_losses = [ev for ev in instants(tracer, "speculative-result")
                   if ev["args"]["loser"] == 1]
    late_commits = [ev for ev in instants(tracer, "speculation-loser")
                    if ev["args"]["node"] == 1]
    # some of the slow node's lost races never committed: they were
    # cancelled in its queue, and still answered
    assert len(slow_losses) > len(late_commits)
    assert all(took < deadline / 2 for took, deadline in drains), drains


@pytest.mark.slow
def test_pre_replication_leaves_no_sole_copy_on_the_straggler(tmp_path):
    """With pre-replication on (speculation off, so the throttled node
    keeps committing its own pieces), every piece the straggler holds
    gains a healthy second holder — its later death costs nothing.

    The chain is deliberately heavier than SMALL: suspicion samples
    commit rates on pump ticks, so the straggler's lag must dwarf the
    detector's 50 ms poll granularity to fire deterministically."""
    chain = LocalJobConfig(n_jobs=2, n_partitions=4, records_per_node=192,
                           records_per_block=16, split_ratio=2, seed=0)
    tracer = RecordingTracer()
    config = RuntimeConfig(n_nodes=4, chain=chain, task_slots=2,
                           pre_replicate=True, suspect_window=2.0)
    with Coordinator(config, tmp_path / "cluster", tracer=tracer,
                     fault_model=FaultModel.parse("slow@1:10")) as coord:
        report = coord.run_chain()
        assert report.checksum == reference_checksum(chain, 4)
        assert report.deaths == []
        assert report.speculation["pre_replicated"] > 0
        registry = coord.chain_run.registry
        straggler_pieces = [
            entry for per_part in registry.pieces.values()
            for entries in per_part.values() for entry in entries
            if entry.node == 1]
        assert straggler_pieces  # the throttled node did commit work
        for entry in straggler_pieces:
            holders = registry.holders(*entry.key)
            assert len(holders) >= 2, entry.key
            assert holders - {1}, entry.key
    assert instants(tracer, "pre-replicate")


@pytest.mark.slow
def test_service_surfaces_throttles_and_accepts_speculation_overrides(
        tmp_path):
    tiny = LocalJobConfig(n_jobs=1, n_partitions=2, records_per_node=8,
                          records_per_block=8, seed=3)
    config = RuntimeConfig(n_nodes=2, chain=tiny, task_slots=2)
    with ChainService(config, tmp_path / "svc") as service:
        service.pool.throttle_node(1, 2.0)
        status = service.status()
        assert status["throttled"] == {"1": 2.0}
        assert status["suspected"] == []
        job = service.submit(chain=tiny, speculation=True)
        service.wait(job.id, timeout=60)
        assert job.state == DONE, job.error
        assert job.report.checksum == reference_checksum(tiny, 2)


def test_speculation_without_idle_capacity_warns_and_noops(tmp_path):
    """Every healthy peer saturated (or suspected): the backup is never
    queued behind busy slots — speculation declines with a one-time
    warning and retries on a later tick."""
    config = RuntimeConfig(n_nodes=2, chain=SMALL, task_slots=1,
                           speculation=True)
    coord = Coordinator(config, tmp_path / "cluster")  # never started
    run = coord.chain_run
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run._backup_candidate(original=1, suspected={0, 1}) is None
        # the no-op warning fires once, not per tick
        assert run._backup_candidate(original=1, suspected={0, 1}) is None
    assert len(caught) == 1
    assert "no healthy idle slot" in str(caught[0].message)
    # with a healthy idle peer the same call places the backup there
    assert run._backup_candidate(original=1, suspected={1}) == 0
