"""The multi-job middleware (paper §IV-A, Fig. 3).

The middleware knows the job dependencies and submits jobs to the Master
(our :class:`~repro.mapreduce.jobtracker.JobTracker`) one at a time.  Its
failure behaviour depends on the strategy:

* **RCMP**: when the Master reports irreversible data loss, the running job
  is cancelled; the middleware infers from the dependency information which
  jobs must be recomputed and in which order, tags each recomputation run
  with the reducer outputs damaged *by all failures so far* (so one
  recomputation run can service any number of data-loss events, including
  nested failures), then restarts the interrupted job from scratch.
* **Hadoop REPL-k**: failures are absorbed inside the job by task
  re-execution; the chain simply continues.  If replication turns out to be
  insufficient (all replicas of some block lost) the computation fails.
* **OPTIMISTIC**: any data loss discards everything and restarts the chain
  from job 1.
* **Hybrid** (§IV-C): RCMP plus replication of every k-th job output, which
  bounds the cascade at the last replication point and optionally lets the
  middleware reclaim persisted outputs behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Union

from repro.cluster.failures import FailurePlan
from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import Cluster, Node
from repro.core.lineage import ChainState
from repro.core.persistence import PersistedStore
from repro.core.strategies import Strategy
from repro.dfs import DistributedFileSystem
from repro.dfs.filesystem import DataLossError
from repro.faults import FaultEvent, FaultInjector, FaultModel
from repro.mapreduce.jobtracker import JobAborted, JobFailed, JobTracker
from repro.mapreduce.metrics import RunMetrics
from repro.obs.tracer import Tracer
from repro.runtime.recovery import (
    cascade_jobs,
    hybrid_reclaimable,
    is_hybrid_anchor,
)
from repro.simcore import AllOf, SeedSequenceRegistry, SimulationError, Simulator
from repro.workloads.chain import ChainSpec, build_chain


@dataclass
class ChainResult:
    """Outcome of one chain execution."""

    strategy: Strategy
    chain: ChainSpec
    cluster_name: str
    metrics: RunMetrics
    completed: bool
    failure_reason: Optional[str] = None
    killed_nodes: list[int] = field(default_factory=list)
    persisted_bytes: float = 0.0
    dfs_bytes: float = 0.0
    #: chain restarts consumed (OPTIMISTIC resets + degradation rollbacks)
    restarts: int = 0
    #: every injected fault as (time, kind, node_id), in order
    fault_log: list[tuple[float, str, int]] = field(default_factory=list)

    @property
    def total_runtime(self) -> float:
        return self.metrics.total_runtime

    @property
    def jobs_started(self) -> int:
        return self.metrics.n_jobs_started

    def __repr__(self) -> str:  # pragma: no cover
        status = "ok" if self.completed else f"FAILED({self.failure_reason})"
        return (f"<ChainResult {self.strategy.name} on {self.cluster_name}: "
                f"{self.total_runtime:.1f}s, {self.jobs_started} jobs, "
                f"{status}>")


class Middleware:
    """Drives one chain execution on an instantiated cluster."""

    def __init__(self, cluster: Cluster, dfs: DistributedFileSystem,
                 chain: ChainSpec, strategy: Strategy,
                 failure_plan: "FaultInput" = None,
                 min_rerun_mappers: int = 0):
        self.cluster = cluster
        self.sim = cluster.sim
        self.dfs = dfs
        self.chain = chain
        self.strategy = strategy
        self.min_rerun_mappers = min_rerun_mappers
        self.metrics = RunMetrics()
        self.store = PersistedStore()
        self.state = ChainState(chain, cluster, dfs, self.store, strategy)
        self.jt = JobTracker(cluster, dfs, self.metrics)
        self.detector = cluster.detector
        model = _coerce_faults(failure_plan)
        if strategy.recovery_mode == "hadoop":
            # Hadoop starts exactly n_jobs jobs; the paper injects its
            # Hadoop failures at jobs 2 or 7 (§V-A).
            model = model.clamp_to(chain.n_jobs)
        self.model = model
        self.state.keep_lost_files = model.has_transient
        self.injector = FaultInjector(cluster, model,
                                      on_fault=self._on_fault,
                                      on_revive=self._on_revive)
        self.failure_reason: Optional[str] = None
        self.restarts = 0
        self._done = False
        # losses noticed by the detector but not yet applied to metadata:
        # (node, event, death_time, due_time)
        self._pending_losses: list[tuple] = []

    # --------------------------------------------------------------- events
    def _on_fault(self, node: Node, event: FaultEvent) -> None:
        """A fault landed.  Metadata consequences (replica drops, damage
        records, stash discards) are applied when the *detector* notices —
        immediately in paper mode, one heartbeat-expiry later otherwise."""
        tracer = self.sim.tracer
        if tracer.enabled:
            if event.kind == "fail-stop" and not event.transient:
                tracer.instant("cascade", "node-killed", tid=node.node_id,
                               node=node.node_id)
            else:
                tracer.instant("cascade", "fault-injected", tid=node.node_id,
                               node=node.node_id, kind=event.kind,
                               downtime=event.downtime, wipe=event.wipe)
        self.metrics.record_failure(self.sim.now, node.node_id)
        delay = self.detector.detection_delay(self.sim.now)
        if delay <= 0:
            self._commit_loss(node, event, self.sim.now)
        else:
            entry = (node, event, self.sim.now, self.sim.now + delay)
            self._pending_losses.append(entry)
            self.sim.process(
                self._delayed_commit(entry, delay),
                name=f"detect-{node.node_id}")

    def _delayed_commit(self, entry: tuple, delay: float) -> Generator:
        yield self.sim.timeout(delay)
        if self._done or entry not in self._pending_losses:
            return  # already flushed by a recovery-planning path
        self._pending_losses.remove(entry)
        node, event, death_time, _due = entry
        self._commit_loss(node, event, death_time)

    def _flush_detections(self) -> None:
        """Apply every detection whose expiry has already passed.

        The jobtracker's declare timer and our detection commit can land
        on the same timestep; an abort then resumes the planner *before*
        the commit callback runs.  Recovery paths call this first so plans
        never read metadata the detector has already invalidated."""
        now = self.sim.now + 1e-9
        due = [e for e in self._pending_losses if e[3] <= now]
        for entry in due:
            self._pending_losses.remove(entry)
            node, event, death_time, _due = entry
            self._commit_loss(node, event, death_time)

    def _commit_loss(self, node: Node, event: FaultEvent,
                     death_time: float) -> None:
        """The detector declared the fault: apply its metadata effects.

        If a transient node already rejoined with its data intact (the
        outage fit inside the detection window), the loss never becomes
        visible at all — a *blip*.  If it rejoined with a wiped disk, the
        loss is applied and the stashed data is unsalvageable."""
        now = self.sim.now
        tracer = self.sim.tracer
        if now > death_time:
            latency = now - death_time
            self.metrics.record_detection(now, node.node_id, latency)
            if tracer.enabled:
                tracer.instant("cascade", "loss-detected", tid=node.node_id,
                               node=node.node_id, latency=latency)
                tracer.counter("detection-latency", {"seconds": latency},
                               tid=node.node_id)
        if node.alive and event.data_survives:
            return  # blip: back up, data intact, nobody noticed
        self.state.note_node_death(node.node_id)
        if not event.transient or node.alive:
            # fail-stop / disk-loss, or a wiped disk that already rejoined:
            # the stashed data can never be healed
            self.state.discard_offline(node.node_id)
        # A run launched inside the detection window never saw this node
        # fail (death watchers attach to alive nodes only) yet its plan may
        # reference the node's outputs; hand it the declaration directly.
        self.jt.notify_declared_loss(node.node_id)
        if self.strategy.re_replicate_after_failure:
            wait = self.cluster.spec.failure_detection_timeout \
                if self.detector.paper_mode else 0.0
            self.sim.process(self._re_replicate(wait),
                             name=f"re-replicate-{node.node_id}")

    def _on_revive(self, node: Node, event: FaultEvent) -> None:
        delay = self.detector.rejoin_delay(self.sim.now)
        if delay <= 0:
            self._commit_rejoin(node, event)
        else:
            self.sim.process(self._delayed_rejoin(node, event, delay),
                             name=f"rejoin-{node.node_id}")

    def _delayed_rejoin(self, node: Node, event: FaultEvent,
                        delay: float) -> Generator:
        yield self.sim.timeout(delay)
        if self._done or not node.alive:
            return
        self._commit_rejoin(node, event)

    def _commit_rejoin(self, node: Node, event: FaultEvent) -> None:
        healed = self.state.note_node_rejoin(node.node_id,
                                             event.data_survives)
        self.metrics.record_rejoin(self.sim.now, node.node_id)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant("cascade", "node-rejoined", tid=node.node_id,
                           node=node.node_id,
                           data_intact=event.data_survives, healed=healed)

    def _re_replicate(self, delay: float) -> Generator:
        """HDFS-style background restoration of lost replicas, starting
        once the namenode has detected the failure."""
        yield self.sim.timeout(delay)
        try:
            yield self.dfs.restore_replication()
        except SimulationError:
            pass  # a target died mid-restore; the next kill retriggers us

    def _notify_job_start(self) -> None:
        self.injector.notify_job_start(self.jt.peek_ordinal())

    # ----------------------------------------------------------------- run
    def run(self) -> Generator:
        """Simulation process body for the whole chain."""
        tracer = self.sim.tracer
        chain_span = tracer.span(
            "chain", f"chain:{self.strategy.name}",
            n_jobs=self.chain.n_jobs,
            cluster=self.cluster.spec.name) if tracer.enabled else None
        self.state.seed_input()
        idx = 1
        rerun = False
        # like ``ChainRun.run``: done only once every job has run *and* no
        # damaged output is still needed (a damaged sink is a lost result)
        while idx <= self.chain.n_jobs or self._cascade(idx):
            self._flush_detections()
            # Service any damage the next job (or the result) still needs.
            if self._cascade(idx):
                if self.strategy.recompute:
                    status = yield from self._recover(idx)
                    if self.failure_reason:
                        break  # recovery itself is impossible (input lost)
                    if status == "degrade":
                        anchor = yield from self._degrade(idx)
                        if self.failure_reason:
                            break
                        idx, rerun = anchor + 1, False
                        continue
                elif self.strategy.optimistic:
                    if not (yield from self._consume_restart()):
                        break
                    self.state.reset()
                    idx, rerun = 1, False
                else:
                    self.failure_reason = ("irrecoverable data loss: "
                                           "replication was insufficient")
                    break
            if idx > self.chain.n_jobs:
                continue
            kind = "rerun" if rerun else "initial"
            try:
                plan = self.state.build_initial_plan(idx, kind=kind)
            except (RuntimeError, ValueError) as exc:
                # e.g. the chain input itself lost all replicas: nothing
                # any strategy can do (the paper assumes the computation's
                # input is safely replicated)
                self.failure_reason = str(exc)
                break
            self._notify_job_start()
            try:
                completion = yield from self.jt.run_job(plan)
            except JobAborted:
                if self.strategy.optimistic:
                    if not (yield from self._consume_restart()):
                        break
                    self.state.reset()
                    idx, rerun = 1, False
                else:
                    rerun = True
                continue
            except JobFailed as exc:
                self.failure_reason = str(exc)
                break
            except SimulationError as exc:
                # defensive: a fault landed somewhere the jobtracker does
                # not shield (stochastic fuzzing); fail the run cleanly
                self.failure_reason = f"simulation error: {exc}"
                break
            self.state.apply_completion(completion, plan)
            if self._is_hybrid_point(idx):
                status = yield from self._replicate_output(idx)
                if self.failure_reason:
                    break
                if status == "degrade":
                    anchor = yield from self._degrade(idx + 1)
                    if self.failure_reason:
                        break
                    idx, rerun = anchor + 1, False
                    continue
            idx += 1
            rerun = False
        self._done = True
        self.injector.stop()
        result = self._result(completed=self.failure_reason is None
                              and idx > self.chain.n_jobs)
        if chain_span is not None:
            chain_span.end(completed=result.completed,
                           jobs_started=result.jobs_started,
                           failure_reason=self.failure_reason)
        return result

    def _cascade(self, next_job: int) -> list[int]:
        """The damaged jobs to recompute before ``next_job`` runs (§IV-A):
        the shared planner's cut over the dependency graph, with every job
        before ``next_job`` done.  An intact output — e.g. a replicated
        hybrid anchor (§IV-C) — stops the cut, so damage shadowed behind
        it is left alone until a later failure exposes it."""
        return cascade_jobs(self.chain.graph, range(1, next_job),
                            self.state.damaged_jobs())

    def _recover(self, current_job: int) -> Generator:
        """Run the minimal recomputation cascade for ``current_job``
        (§IV-A).  Each iteration re-reads the damage set, so failures that
        land during recovery (nested failures, Fig. 7 case f) are folded
        into the next recomputation run automatically.

        Returns ``"ok"`` when the cascade drained, ``"failed"`` when
        recovery is impossible (``failure_reason`` is set), or
        ``"degrade"`` when the strategy's ``max_cascade_depth`` tripped
        and the chain should fall back to its last intact anchor."""
        tracer = self.sim.tracer
        recover_span = tracer.span(
            "cascade", f"recover-for-job{current_job}",
            for_job=current_job) if tracer.enabled else None
        runs = 0
        bound = self.strategy.max_cascade_depth
        while True:
            self._flush_detections()
            cascade = self._cascade(current_job)
            if not cascade:
                if recover_span is not None:
                    recover_span.end()
                return "ok"
            if bound and runs >= bound:
                if recover_span is not None:
                    recover_span.end(degraded=True, runs=runs)
                return "degrade"
            if tracer.enabled:
                tracer.instant("cascade", "cascade-plan",
                               for_job=current_job, cascade=list(cascade))
            j = cascade[0]
            try:
                plan = self.state.build_recompute_plan(
                    j, min_rerun_mappers=self.min_rerun_mappers)
            except (RuntimeError, ValueError) as exc:
                self.failure_reason = str(exc)
                if recover_span is not None:
                    recover_span.end(failure_reason=self.failure_reason)
                return "failed"
            runs += 1
            self._notify_job_start()
            try:
                completion = yield from self.jt.run_job(plan)
            except JobAborted:
                continue  # replan with the union of all damage
            except (JobFailed, SimulationError) as exc:
                self.failure_reason = str(exc)
                if recover_span is not None:
                    recover_span.end(failure_reason=self.failure_reason)
                return "failed"
            self.state.apply_completion(completion, plan)

    def _degrade(self, current_job: int) -> Generator:
        """Graceful degradation: the cascade for ``current_job`` exceeded
        the strategy's depth bound.  Consume a restart, roll the chain
        back to the last job with an intact output (a hybrid replication
        point, or — anchor 0 — the chain input) and resume from there."""
        if not (yield from self._consume_restart()):
            return 0
        self._flush_detections()
        anchor = 0
        for j in sorted(self.state.jobs, reverse=True):
            if j < current_job and not self.state.jobs[j].has_damage:
                anchor = j
                break
        self.state.rollback_to(anchor)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant("cascade", "degraded", anchor=anchor,
                           restarts=self.restarts)
        return anchor

    def _consume_restart(self) -> Generator:
        """Charge one chain restart against the strategy's budget; pay the
        exponential backoff.  Returns False (with ``failure_reason`` set)
        once the budget is exhausted, guaranteeing termination under
        stochastic fault arrivals."""
        self.restarts += 1
        cap = self.strategy.max_restarts
        if cap and self.restarts > cap:
            self.failure_reason = (f"restart budget exhausted after {cap} "
                                   f"chain restarts")
            return False
        backoff = self.strategy.restart_backoff
        if backoff > 0:
            yield self.sim.timeout(backoff * 2 ** min(self.restarts - 1, 16))
        return True

    # -------------------------------------------------------------- hybrid
    def _is_hybrid_point(self, idx: int) -> bool:
        return is_hybrid_anchor(self.chain.graph, idx,
                                self.strategy.hybrid_interval)

    def _replicate_output(self, idx: int) -> Generator:
        """§IV-C: replicate job ``idx``'s output to bound the cascade.
        Returns a status like :meth:`_recover` (retrying replication folds
        any recovery the retry needs into this call)."""
        extra = self.strategy.hybrid_replication - 1
        if extra <= 0:
            return "ok"
        while True:
            files = [piece.file
                     for pieces in self.state.jobs[idx].layout.values()
                     for piece in pieces
                     if self.dfs.exists(piece.file)]
            try:
                events = [self.dfs.replicate_file(f, extra) for f in files]
                yield AllOf(self.sim, events)
                break
            except (SimulationError, DataLossError):
                # a target died mid-replication; recover then retry
                if self._cascade(idx + 1):
                    status = yield from self._recover(idx + 1)
                    if status != "ok":
                        return status
        if self.strategy.hybrid_reclaim:
            # drop the map outputs and pieces the anchors now shield from
            # any future cascade
            damaged = self.state.damaged_jobs()
            intact = [j for j in range(1, idx + 1)
                      if self._is_hybrid_point(j) and j not in damaged]
            map_jobs, piece_jobs = hybrid_reclaimable(
                self.chain.graph, range(1, idx + 1), intact)
            self.store.reclaim_jobs(map_jobs)
            self.state.drop_jobs(piece_jobs)
        return "ok"

    # -------------------------------------------------------------- result
    def _result(self, completed: bool) -> ChainResult:
        return ChainResult(
            strategy=self.strategy,
            chain=self.chain,
            cluster_name=self.cluster.spec.name,
            metrics=self.metrics,
            completed=completed,
            failure_reason=self.failure_reason,
            killed_nodes=[n for _, n in self.injector.killed],
            persisted_bytes=self.store.total_bytes,
            dfs_bytes=self.dfs.total_bytes(),
            restarts=self.restarts,
            fault_log=list(self.injector.faults),
        )


FaultInput = Union[FaultModel, FailurePlan, str, list, None]
#: backwards-compatible alias (older call sites / docs)
FailureInput = FaultInput


def _coerce_faults(failures: FaultInput) -> FaultModel:
    if failures is None:
        return FaultModel()
    if isinstance(failures, FaultModel):
        return failures
    if isinstance(failures, FailurePlan):
        return FaultModel.from_plan(failures)
    if isinstance(failures, str):
        return FaultModel.parse(failures)
    # list of (job, offset) pairs
    from repro.cluster.failures import FailureEvent
    return FaultModel.from_plan(
        FailurePlan([FailureEvent(job, offset) for job, offset in failures]))


def run_chain(cluster_spec: ClusterSpec,
              strategy: Strategy,
              chain: Optional[ChainSpec] = None,
              n_jobs: int = 7,
              failures: FaultInput = None,
              seed: int = 0,
              min_rerun_mappers: int = 0,
              tracer: Optional[Tracer] = None) -> ChainResult:
    """Top-level entry point: simulate one chain execution.

    Parameters
    ----------
    cluster_spec:
        Hardware/configuration, e.g. ``presets.stic()`` or ``presets.dco()``.
    strategy:
        A :mod:`repro.core.strategies` preset or custom :class:`Strategy`.
    chain:
        The multi-job workload; defaults to the paper's uniform 1/1/1 chain
        of ``n_jobs`` jobs.
    failures:
        ``None``, a ``FaultModel``, a legacy ``FailurePlan``, a spec string
        (the paper's FAIL notation "2" / "7,14", or the generalized
        ``--faults`` grammar, e.g. "transient@job2:down=45; mtbf=600"), or
        a list of ``(job_ordinal, offset_seconds)`` pairs.
    seed:
        Root seed for all stochastic choices (placement, victim selection).
    min_rerun_mappers:
        Forces recomputation runs to re-execute at least this many mappers
        (Fig. 14's wave-count sweep).
    tracer:
        Observability sink (see :mod:`repro.obs`); defaults to the ambient
        tracer (a no-op unless one was installed via ``obs.tracing``).
    """
    sim = Simulator(tracer=tracer,
                    trace_label=f"{strategy.name} on {cluster_spec.name}")
    cluster = Cluster(sim, cluster_spec, SeedSequenceRegistry(seed))
    chain = chain or build_chain(n_jobs=n_jobs)
    dfs = DistributedFileSystem(cluster, chain.block_size)
    middleware = Middleware(cluster, dfs, chain, strategy, failures,
                            min_rerun_mappers=min_rerun_mappers)
    proc = sim.process(middleware.run(), name="middleware")
    sim.run()
    if not proc.triggered or not proc.ok:
        raise RuntimeError(
            f"chain execution did not finish cleanly: "
            f"{proc.value if proc.triggered else 'deadlock'}")
    return proc.value
