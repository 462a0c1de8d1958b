"""In-process record-level MapReduce over a multi-node storage model.

Every piece of state is tagged with the node that stores it, so a node
failure (:meth:`LocalCluster.kill`) removes exactly what a real collocated
node loses: its stored reducer-output pieces and its persisted mapper
outputs.  The engine mirrors the simulator's data model — partitions made of
key-fraction *pieces*, hierarchical map-task ids per upstream partition —
so the recovery logic (:mod:`repro.localexec.recovery`) exercises the same
rules the performance layer plans with, but on actual records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.localexec.records import (
    Record,
    generate_records,
    map_udf,
    partition_of,
    reduce_udf,
    split_of,
)
# shared hierarchical id scheme
from repro.runtime.recovery import PARENT_STRIDE, STRIDE, JobGraph

__all__ = ["PARENT_STRIDE", "STRIDE", "JobGraph", "LocalCluster",
           "LocalJobConfig", "MapOutputData", "PieceData"]


@dataclass(frozen=True)
class LocalJobConfig:
    """Chain configuration for the record-level executor."""

    n_jobs: int = 3
    n_partitions: int = 4
    records_per_node: int = 64
    records_per_block: int = 16
    value_size: int = 16
    #: reducer splitting during recomputation; ``None`` = auto
    #: (``survivors - 1``, per ``recovery.effective_split_ratio``)
    split_ratio: Optional[int] = 1
    seed: int = 0
    #: per-job upstream tuples (1-based; () = computation input);
    #: ``None`` is the paper's linear chain.  Validated at construction:
    #: a malformed DAG raises ``ValueError`` before anything executes.
    dependencies: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if min(self.n_jobs, self.n_partitions, self.records_per_node,
               self.records_per_block) < 1:
            raise ValueError("all config values must be >= 1")
        if self.split_ratio is not None and self.split_ratio < 1:
            raise ValueError("split_ratio must be >= 1 (or None for auto)")
        if self.dependencies is not None:
            # normalize JSON-decoded lists into hashable tuples, then
            # let JobGraph reject malformed edges with a ValueError
            object.__setattr__(
                self, "dependencies",
                tuple(tuple(int(d) for d in deps)
                      for deps in self.dependencies))
        self.graph()

    def graph(self) -> JobGraph:
        """The dependency DAG (linear when ``dependencies`` is None)."""
        return JobGraph.from_dependencies(self.n_jobs, self.dependencies)


@dataclass
class PieceData:
    """One stored piece of a partition's output."""

    job: int
    partition: int
    fraction_index: int    # split index
    n_splits: int
    node: int
    records: list[Record]

    def signature(self) -> tuple[int, int]:
        return (self.fraction_index, self.n_splits)


@dataclass
class MapOutputData:
    """One persisted mapper output: per-partition record slices."""

    job: int
    task_id: int
    node: int
    origin: Optional[tuple[int, int]]  # (upstream job, partition) or None
    slices: dict[int, list[Record]]


@dataclass
class _Block:
    task_id: int
    node: int              # where the input records are stored
    records: list[Record]
    origin: Optional[tuple[int, int]]


class LocalCluster:
    """A record-level chain executor with per-node storage."""

    def __init__(self, n_nodes: int, config: LocalJobConfig,
                 map_assignment: Optional[Callable[[int, int, int], int]]
                 = None):
        """``map_assignment(job, task_id, storage_node) -> node`` lets tests
        force non-local mappers (needed to construct the Fig. 5 hazard);
        the default runs every mapper data-local."""
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        self.n_nodes = n_nodes
        self.config = config
        self.alive: set[int] = set(range(n_nodes))
        self.map_assignment = map_assignment or (lambda j, t, node: node)
        #: job -> partition -> list[PieceData]
        self.pieces: dict[int, dict[int, list[PieceData]]] = {}
        #: (job, task_id) -> MapOutputData
        self.map_outputs: dict[tuple[int, int], MapOutputData] = {}
        #: job -> partition -> list of lost piece signatures
        self.damage: dict[int, dict[int, list[tuple[int, int]]]] = {}
        self.graph = config.graph()
        self.done_jobs: set[int] = set()
        self.completed_jobs = 0
        self._input = self._make_input()

    # ---------------------------------------------------------------- input
    def _make_input(self) -> list[_Block]:
        cfg = self.config
        blocks: list[_Block] = []
        tid = 0
        for node in range(self.n_nodes):
            records = generate_records(cfg.records_per_node,
                                       seed=cfg.seed * 1000 + node,
                                       value_size=cfg.value_size)
            for i in range(0, len(records), cfg.records_per_block):
                blocks.append(_Block(tid, node,
                                     records[i:i + cfg.records_per_block],
                                     None))
                tid += 1
        return blocks

    def input_blocks(self, job: int) -> list[_Block]:
        """The map-side input blocks of ``job`` under the current layout.

        A job with upstream dependencies maps over the union of its
        parents' outputs; task ids are hierarchical — parent position,
        then upstream partition, then block ordinal — so parent position
        0 (every linear-chain job) keeps today's ids byte-for-byte."""
        parents = self.graph.parents(job)
        if not parents:
            return list(self._input)
        cfg = self.config
        blocks: list[_Block] = []
        for pos, parent in enumerate(parents):
            upstream = self.pieces.get(parent)
            if upstream is None:
                raise RuntimeError(f"job {parent} has not produced output")
            if any(self.damage.get(parent, {}).values()):
                raise RuntimeError(
                    f"job {parent} output is damaged; recompute it first")
            for partition in sorted(upstream):
                ordinal = 0
                for piece in upstream[partition]:
                    recs = piece.records
                    for i in range(0, max(len(recs), 1),
                                   cfg.records_per_block):
                        blocks.append(_Block(
                            pos * PARENT_STRIDE + partition * STRIDE
                            + ordinal, piece.node,
                            recs[i:i + cfg.records_per_block],
                            (parent, partition)))
                        ordinal += 1
        return blocks

    # ------------------------------------------------------------ execution
    def run_map(self, job: int, block: _Block) -> MapOutputData:
        node = self.map_assignment(job, block.task_id, block.node)
        if node not in self.alive:
            node = min(self.alive)
        slices: dict[int, list[Record]] = {}
        for record in block.records:
            out = map_udf(record, job)
            slices.setdefault(
                partition_of(out.key, self.config.n_partitions),
                []).append(out)
        data = MapOutputData(job, block.task_id, node, block.origin, slices)
        self.map_outputs[(job, block.task_id)] = data
        return data

    def run_reduce(self, job: int, partition: int, node: int,
                   split_index: int = 0, n_splits: int = 1) -> PieceData:
        """Reduce (a split of) one partition from all of the job's map
        outputs — persisted and just-executed alike (§IV-B1)."""
        groups: dict[int, list[bytes]] = {}
        for (j, _tid), data in self.map_outputs.items():
            if j != job:
                continue
            for record in data.slices.get(partition, ()):
                if n_splits > 1 and \
                        split_of(record.key, n_splits) != split_index:
                    continue
                groups.setdefault(record.key, []).append(record.value)
        records = [reduce_udf(key, values)
                   for key, values in sorted(groups.items())]
        piece = PieceData(job, partition, split_index, n_splits, node,
                          records)
        bucket = self.pieces.setdefault(job, {}).setdefault(partition, [])
        bucket[:] = [p for p in bucket
                     if p.signature() != piece.signature()]
        bucket.append(piece)
        bucket.sort(key=lambda p: (p.n_splits, p.fraction_index))
        return piece

    def run_job(self, job: int) -> None:
        """Run job ``job`` in full (initial execution)."""
        for block in self.input_blocks(job):
            self.run_map(job, block)
        alive = sorted(self.alive)
        for partition in range(self.config.n_partitions):
            node = alive[partition % len(alive)]
            self.run_reduce(job, partition, node)
        self.done_jobs.add(job)
        self.completed_jobs = max(self.completed_jobs, job)

    def run_chain(self) -> None:
        # ascending index order is always a valid topological order:
        # every dependency references an earlier job
        for job in range(1, self.config.n_jobs + 1):
            self.run_job(job)

    # -------------------------------------------------------------- failure
    def kill(self, node: int) -> None:
        """Fail a node: drop its persisted map outputs and stored pieces."""
        if node not in self.alive:
            raise ValueError(f"node {node} already dead")
        self.alive.discard(node)
        for key in [k for k, m in self.map_outputs.items()
                    if m.node == node]:
            del self.map_outputs[key]
        for job, partitions in self.pieces.items():
            for partition, plist in list(partitions.items()):
                lost = [p for p in plist if p.node == node]
                if not lost:
                    continue
                marks = self.damage.setdefault(job, {}).setdefault(
                    partition, [])
                marks.extend(p.signature() for p in lost)
                partitions[partition] = [p for p in plist if p.node != node]

    # -------------------------------------------------------------- queries
    def final_output(self) -> dict[int, list[Record]]:
        """Partition -> sorted records of the computation's output: the
        union over sink jobs, keyed ``sink_pos * STRIDE + partition`` so
        a single-sink chain keeps plain partition keys (and checksums)
        unchanged."""
        out = {}
        for pos, sink in enumerate(sorted(self.graph.sinks())):
            last = self.pieces.get(sink)
            if last is None:
                raise RuntimeError(f"sink job {sink} has not completed")
            for partition, plist in last.items():
                records: list[Record] = []
                for piece in plist:
                    records.extend(piece.records)
                out[pos * STRIDE + partition] = sorted(records)
        return out

    def partition_coverage_ok(self, job: int) -> bool:
        """Invariant: every partition's pieces cover the key range exactly
        once (fractions sum to 1)."""
        for plist in self.pieces.get(job, {}).values():
            total = sum(1.0 / p.n_splits for p in plist)
            if abs(total - 1.0) > 1e-9:
                return False
        return True
