"""Lineage tracking and recomputation planning (paper §IV-A).

The middleware knows the job dependency DAG (``ChainSpec.graph``, the
:class:`~repro.runtime.recovery.JobGraph` every executor plans over).
:class:`ChainState` records, for every completed job, the current layout of
its output partitions — which DFS files hold which key-fraction *pieces* of
each partition — plus the set of damaged pieces awaiting regeneration.

From that state it builds the three kinds of :class:`~repro.mapreduce.types.
JobPlan`:

* ``initial`` — the full job, from the current upstream layout;
* ``recompute`` — the *minimum* work that the shared planner
  (:func:`~repro.runtime.recovery.plan_job_recovery`) prescribes: only
  reducers for lost pieces (split per the strategy) and only mappers whose
  persisted outputs are missing or invalidated (the Fig. 5 rule);
* ``rerun`` — the full re-execution of the job that was interrupted by the
  failure (RCMP discards its partial results, §V-A).

Map task identifiers are hierarchical — ``partition * STRIDE + block``, in
the parent position's ``PARENT_STRIDE`` band — so a partition regenerated
*unsplit* (identical block boundaries) keeps its consumers' task ids stable
and their persisted outputs reusable, while a *split* regeneration changes
the id space for exactly the affected partition, matching the invalidation
the correctness rule demands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.persistence import MapOutputMeta, PersistedStore
from repro.core.strategies import Strategy
from repro.dfs import DistributedFileSystem
from repro.mapreduce.jobtracker import JobCompletion
from repro.mapreduce.types import (
    JobPlan,
    MapInput,
    MapTaskSpec,
    PartitionRef,
    ReduceTaskSpec,
    ReusedMapOutput,
)
from repro.runtime.recovery import PARENT_STRIDE, STRIDE, plan_job_recovery
from repro.workloads.chain import ChainSpec


@dataclass
class Piece:
    """One piece of a partition's output: live in the layout, or damaged
    and awaiting regeneration.  A damaged piece keeps its ``file`` so a
    transient node that rejoins with its data intact can heal the damage
    by re-adopting the file instead of recomputing it."""

    file: str
    fraction: float
    split_index: int
    n_splits: int

    def signature(self) -> tuple:
        return (self.fraction, self.split_index, self.n_splits)


@dataclass
class _JobState:
    layout: dict[int, list[Piece]] = field(default_factory=dict)
    damaged: dict[int, list[Piece]] = field(default_factory=dict)

    @property
    def has_damage(self) -> bool:
        return any(self.damaged.values())


class ChainState:
    """Lineage state of one chain execution."""

    INPUT_FILE = "chain-input"

    def __init__(self, chain: ChainSpec, cluster, dfs: DistributedFileSystem,
                 store: PersistedStore, strategy: Strategy):
        self.chain = chain
        self.cluster = cluster
        self.dfs = dfs
        self.store = store
        self.strategy = strategy
        self.jobs: dict[int, _JobState] = {}
        self.completed_through = 0   # highest logical index fully completed
        #: when the fault model may bring a dead node back (transient
        #: failures), lost files stay in the DFS namespace so a rejoin with
        #: the disk intact can heal the damage instead of recomputing it
        self.keep_lost_files = False
        #: (job, partition) pairs a recompute run is currently regenerating;
        #: rejoin healing must not re-adopt pieces of these (the regenerated
        #: replacement is about to land) or coverage would exceed 1.0
        self.regenerating: set[tuple[int, int]] = set()

    # ------------------------------------------------------------- input
    def seed_input(self) -> None:
        """Materialize the chain's (pre-existing) triple-replicated input."""
        size = self.chain.total_input(self.cluster.n_nodes)
        self.dfs.seed_replicated(self.INPUT_FILE, size,
                                 self.chain.input_replication,
                                 tags={"kind": "chain-input"})

    # --------------------------------------------------------- completions
    def apply_completion(self, completion: JobCompletion,
                         plan: JobPlan) -> None:
        """Record a finished run: update layouts, persist map outputs,
        apply the Fig. 5 invalidation for split partitions."""
        j = completion.logical_index
        state = self.jobs.setdefault(j, _JobState())
        # Persist the executed mappers' outputs.  A run can complete inside
        # a node's failure-declaration window: outputs it executed on the
        # now-dead node died with it, and re-registering them after the
        # death commit dropped them would make later recomputation plans
        # reuse map outputs no fetch can reach.
        origin_of = {t.task_id: t.input.origin for t in plan.map_tasks}
        metas = [MapOutputMeta(j, tid, node,
                               self._map_output_size(plan, tid),
                               origin_of.get(tid))
                 for tid, node in completion.map_output_nodes.items()
                 if self.cluster.nodes[node].alive]
        self.store.register_many(metas)
        # Update partition layouts from the produced pieces.
        by_partition: dict[int, list[ReduceTaskSpec]] = {}
        for task in plan.reduce_tasks:
            by_partition.setdefault(task.partition, []).append(task)
        for partition, tasks in by_partition.items():
            new_pieces = []
            for task in sorted(tasks, key=lambda t: t.split_index):
                files = completion.partition_files.get(partition, [])
                name = self._file_for(files, task, plan)
                new_pieces.append(Piece(name, task.fraction,
                                        task.split_index, task.n_splits))
            self._install_pieces(
                j, partition, new_pieces,
                boundaries_changed=partition in plan.split_partitions)
            # the regeneration supersedes any still-damaged kept-around
            # files of this partition: they can never be healed now
            for lp in state.damaged.pop(partition, []):
                if self.dfs.exists(lp.file):
                    self.dfs.delete(lp.file)
            self.regenerating.discard((j, partition))
        if plan.kind in ("initial", "rerun"):
            self.completed_through = max(self.completed_through, j)

    def _file_for(self, files: list[str], task: ReduceTaskSpec,
                  plan: JobPlan) -> str:
        token = f".{task.split_index}of{task.n_splits}."
        for name in files:
            if token in name and f"part-{task.partition:05d}" in name:
                return name
        raise RuntimeError(
            f"no output file recorded for job {plan.logical_index} "
            f"partition {task.partition} split {task.split_index}")

    def _install_pieces(self, j: int, partition: int,
                        new_pieces: list[Piece],
                        boundaries_changed: bool) -> None:
        """Merge regenerated pieces with any surviving pieces of the
        partition; the merged layout must cover the whole key range."""
        state = self.jobs.setdefault(j, _JobState())
        survivors = state.layout.get(partition, [])
        new_sigs = {p.signature() for p in new_pieces}
        kept = []
        for piece in survivors:
            if piece.signature() in new_sigs:
                # superseded by a regenerated piece with the same key range
                if piece.file not in {p.file for p in new_pieces} \
                        and self.dfs.exists(piece.file):
                    self.dfs.delete(piece.file)
            else:
                kept.append(piece)
        merged = sorted(kept + new_pieces,
                        key=lambda p: (p.n_splits, p.split_index))
        total = sum(p.fraction for p in merged)
        if abs(total - 1.0) > 1e-6:
            raise RuntimeError(
                f"job {j} partition {partition}: pieces cover {total:.6f} "
                f"of the key range after regeneration")
        state.layout[partition] = merged
        if boundaries_changed:
            self.store.invalidate_by_origin(PartitionRef(j, partition))

    def _map_output_size(self, plan: JobPlan, task_id: int) -> float:
        for t in plan.map_tasks:
            if t.task_id == task_id:
                return t.output_size
        raise KeyError(task_id)

    # -------------------------------------------------------------- damage
    def note_node_death(self, node_id: int) -> bool:
        """Process a node death: drop store entries, find lost pieces.

        Returns True if any *completed-job* data was irreversibly lost
        (which is what forces a recomputation cascade)."""
        self.store.drop_node(node_id)
        damaged_files = {m.name for m in self.dfs.on_node_death(node_id)}
        any_loss = False
        for j, state in self.jobs.items():
            for partition, pieces in list(state.layout.items()):
                lost = [p for p in pieces if p.file in damaged_files]
                if not lost:
                    continue
                any_loss = True
                state.damaged.setdefault(partition, []).extend(lost)
                for piece in lost:
                    if self.dfs.exists(piece.file) \
                            and not self.keep_lost_files:
                        self.dfs.delete(piece.file)
                survivors = [p for p in pieces if p.file not in damaged_files]
                if survivors:
                    state.layout[partition] = survivors
                else:
                    del state.layout[partition]
            del j
        return any_loss

    def note_node_rejoin(self, node_id: int, data_intact: bool) -> int:
        """A dead node rejoined.  With its data intact, its DFS replicas
        and persisted map outputs return, and every damage record whose
        lost file is whole again is healed — the piece re-enters the
        layout and needs no recomputation.  Returns the number of healed
        pieces.

        A restored file is *stale* — and is deleted instead of re-adopted —
        when its key range was regenerated while the node was down: either
        a piece with the same signature already lives in the layout, or
        re-adding the piece would make the layout cover more than the whole
        key range (the partition came back with different split
        boundaries)."""
        restored = set(self.dfs.on_node_rejoin(node_id, data_intact))
        if data_intact:
            self.store.restore_node(node_id)
        else:
            self.store.discard_offline(node_id)
        healed = 0
        for j, state in self.jobs.items():
            for partition, lost in list(state.damaged.items()):
                remaining: list[Piece] = []
                for lp in lost:
                    if lp.file not in restored:
                        remaining.append(lp)
                        continue
                    pieces = state.layout.get(partition, [])
                    covered = sum(p.fraction for p in pieces)
                    if (j, partition) in self.regenerating \
                            or any(p.signature() == lp.signature()
                                   for p in pieces) \
                            or covered + lp.fraction > 1.0 + 1e-6:
                        if self.dfs.exists(lp.file):
                            self.dfs.delete(lp.file)
                        remaining.append(lp)
                        continue
                    pieces.append(lp)
                    state.layout[partition] = sorted(
                        pieces, key=lambda p: (p.n_splits, p.split_index))
                    healed += 1
                if remaining:
                    state.damaged[partition] = remaining
                else:
                    state.damaged.pop(partition, None)
        # Restored files with no damage record left (their partition was
        # regenerated while the node was down) were already deleted when
        # the regeneration landed; restored files of an in-flight run are
        # simply not ours to judge — the run registers them on completion.
        return healed

    def discard_offline(self, node_id: int) -> None:
        """Give up on a dead node's stashed data (fail-stop confirmed, or
        it rejoined with a wiped disk): drop the stashes and delete any
        kept-around lost files that can no longer be healed."""
        self.dfs.discard_offline(node_id)
        self.store.discard_offline(node_id)
        if not self.keep_lost_files:
            return
        for state in self.jobs.values():
            for lost in state.damaged.values():
                for lp in lost:
                    if self.dfs.exists(lp.file) \
                            and not self.dfs.meta(lp.file).available:
                        self.dfs.delete(lp.file)

    def drop_jobs(self, jobs: Iterable[int]) -> None:
        """Forget the lineage of ``jobs`` and delete their files still in
        the DFS: live pieces and kept-around damaged ones alike."""
        doomed = set(jobs)
        for j in [j for j in self.jobs if j in doomed]:
            state = self.jobs.pop(j)
            for pieces in [*state.layout.values(), *state.damaged.values()]:
                for piece in pieces:
                    if self.dfs.exists(piece.file):
                        self.dfs.delete(piece.file)

    def rollback_to(self, anchor: int) -> None:
        """Graceful degradation: forget every job after ``anchor`` (whose
        output must be intact — e.g. a hybrid replication point, or the
        chain input at anchor 0) so the chain re-executes from there."""
        self.drop_jobs([j for j in self.jobs if j > anchor])
        self.store.drop_jobs_after(anchor)
        self.completed_through = min(self.completed_through, anchor)
        self.regenerating.clear()  # no run is in flight during a rollback

    def damaged_jobs(self) -> list[int]:
        """Logical indexes of jobs with outstanding damage, ascending."""
        return sorted(j for j, st in self.jobs.items() if st.has_damage)

    def reset(self) -> None:
        """OPTIMISTIC restart: discard every intermediate result."""
        self.drop_jobs(list(self.jobs))
        self.store.clear()
        self.completed_through = 0
        self.regenerating.clear()

    # ------------------------------------------------------- plan building
    def enumerate_map_tasks(self, j: int) -> list[MapTaskSpec]:
        """The full map task list of job ``j`` against the *current*
        layouts of its upstream jobs (hierarchical ids, see module
        docstring).  A job with no dependencies reads the computation's
        input file; a job with several upstreams (DAG join) maps over the
        union of their output blocks."""
        ratio = self.chain.job(j).map_output_ratio
        deps = self.chain.graph.parents(j)
        tasks: list[MapTaskSpec] = []
        if not deps:
            meta = self.dfs.meta(self.INPUT_FILE)
            for i, block in enumerate(meta.blocks):
                if not block.available:
                    raise RuntimeError("chain input block lost — input "
                                       "replication was insufficient")
                tasks.append(MapTaskSpec(
                    i, MapInput(block.size, tuple(block.replicas), None),
                    output_size=block.size * ratio))
            return tasks
        for u_index, dep in enumerate(deps):
            upstream = self.jobs.get(dep)
            if upstream is None:
                raise RuntimeError(f"job {dep} has no recorded output")
            if upstream.has_damage:
                raise RuntimeError(
                    f"job {dep} output is damaged; recompute it before "
                    f"planning job {j} (cascade must run in dependency "
                    f"order)")
            for partition in sorted(upstream.layout):
                ordinal = 0
                origin = PartitionRef(dep, partition)
                base = u_index * PARENT_STRIDE + partition * STRIDE
                for piece in upstream.layout[partition]:
                    meta = self.dfs.meta(piece.file)
                    for block in meta.blocks:
                        if not block.available:
                            raise RuntimeError(
                                f"live layout references lost block of "
                                f"{piece.file}")
                        tasks.append(MapTaskSpec(
                            base + ordinal,
                            MapInput(block.size, tuple(block.replicas),
                                     origin),
                            output_size=block.size * ratio))
                        ordinal += 1
        return tasks

    def build_initial_plan(self, j: int, kind: str = "initial") -> JobPlan:
        """Full plan for job ``j`` (initial run, or rerun after recovery)."""
        spec = self.chain.job(j)
        n_reducers = spec.n_reducers(self.cluster.spec)
        reducers = [ReduceTaskSpec(i, i) for i in range(n_reducers)]
        return JobPlan(
            logical_index=j,
            name=f"job{j}" + ("" if kind == "initial" else "/rerun"),
            kind=kind,
            map_tasks=self.enumerate_map_tasks(j),
            reduce_tasks=reducers,
            n_partitions=n_reducers,
            reduce_output_ratio=spec.reduce_output_ratio,
            output_replication=self.strategy.replication,
            recovery_mode=self.strategy.recovery_mode,
        )

    def build_recompute_plan(self, j: int,
                             min_rerun_mappers: int = 0) -> JobPlan:
        """Minimum-work recomputation plan for damaged job ``j`` (§IV-A),
        as :func:`~repro.runtime.recovery.plan_job_recovery` prescribes it.

        ``min_rerun_mappers`` forces extra mapper re-execution (used by the
        Fig. 14 wave-count experiment); the default recomputes only mappers
        whose persisted outputs are unavailable.  That forcing and the
        round-robin mapper placement below model timing, which only the
        simulator does."""
        state = self.jobs[j]
        alive = self.cluster.alive_ids()
        if not alive:  # name the root cause before any block lost with it
            raise ValueError("no alive nodes")
        all_maps = self.enumerate_map_tasks(j)
        persisted = self.store.entries_for_job(j) \
            if self.strategy.reuse_map_outputs else {}
        plan = plan_job_recovery(
            j, {partition: sorted((p.split_index, p.n_splits) for p in lost)
                for partition, lost in state.damaged.items()},
            [t.task_id for t in all_maps], persisted, alive,
            self.strategy.split_ratio)
        for partition in state.damaged:
            self.regenerating.add((j, partition))

        spec = self.chain.job(j)
        reused_specs = {t.task_id: t for t in all_maps}
        rerun = [reused_specs.pop(tid) for tid in plan.map_tasks]
        if min_rerun_mappers > len(rerun):
            extra = min_rerun_mappers - len(rerun)
            forced = sorted(reused_specs)[:extra]
            for tid in forced:
                rerun.append(reused_specs.pop(tid))
        reused = [ReusedMapOutput(tid, persisted[tid].node,
                                  persisted[tid].size)
                  for tid in sorted(reused_specs)]
        rerun.sort(key=lambda t: t.task_id)
        # Spread recomputed mappers round-robin over the survivors (paper
        # Fig. 6: they run in one wave across the surviving nodes, which is
        # what concentrates their reads on the regenerated data's location).
        mapper_assignment = {t.task_id: alive[i % len(alive)]
                             for i, t in enumerate(rerun)}
        return JobPlan(
            logical_index=j,
            name=f"job{j}/recomp",
            kind="recompute",
            map_tasks=rerun,
            reduce_tasks=[ReduceTaskSpec(i, r.partition, 1.0 / r.n_splits,
                                         r.split_index, r.n_splits)
                          for i, r in enumerate(plan.reduces)],
            n_partitions=spec.n_reducers(self.cluster.spec),
            reused_map_outputs=reused,
            reduce_output_ratio=spec.reduce_output_ratio,
            output_replication=1,
            recovery_mode="abort",
            reducer_assignment={i: r.node
                                for i, r in enumerate(plan.reduces)},
            mapper_assignment=mapper_assignment,
            spread_output=self.strategy.spread_reduce_output,
            split_partitions=frozenset(plan.split_partitions),
        )
