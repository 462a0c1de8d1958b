"""The persisted map-output store (paper §IV-A).

RCMP persists across jobs the mapper outputs that a job materializes anyway,
"effectively trading off storage space for recomputation speed-up".  Mapper
outputs live *outside* the DFS on the local disk of the node that computed
the mapper, so a node failure loses exactly that node's entries.

The store also implements the paper's Fig. 5 correctness rule: a persisted
map output whose *input* came from a reducer-output partition that was later
regenerated by **splitting** must never be reused, because hash-splitting
changed the block boundaries of that partition.  Such entries are invalidated
when the split regeneration is registered.

Reducer outputs are DFS files and are tracked by the DFS itself; this module
only accounts for their storage alongside map outputs for the reclamation
analysis (§IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.mapreduce.types import PartitionRef


@dataclass(frozen=True)
class MapOutputMeta:
    """One persisted mapper output."""

    job_index: int
    task_id: int
    node: int
    size: float
    #: the upstream partition the mapper's input block belonged to
    #: (None for mappers reading the chain input from the DFS)
    origin: Optional[PartitionRef] = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.job_index, self.task_id)


@dataclass
class LossReport:
    """What one node death cost the store."""

    node: int
    lost_map_outputs: list[MapOutputMeta] = field(default_factory=list)

    @property
    def jobs_touched(self) -> set[int]:
        return {m.job_index for m in self.lost_map_outputs}


class PersistedStore:
    """Registry of persisted mapper outputs, keyed by (job_index, task_id)."""

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], MapOutputMeta] = {}
        #: bytes of persisted map outputs per node (storage accounting)
        self.bytes_on_node: dict[int, float] = {}
        #: entries a dead node held, for transient-failure restoration
        self._offline: dict[int, list[MapOutputMeta]] = {}
        #: origins invalidated (Fig. 5) — offline entries with these
        #: origins must never come back
        self._invalidated: set[PartitionRef] = set()
        #: jobs reclaimed by the hybrid strategy — their offline entries
        #: were superseded by a replicated output
        self._reclaimed: set[int] = set()

    # ------------------------------------------------------------ mutation
    def register(self, meta: MapOutputMeta) -> None:
        """Insert or replace the entry for (job, task)."""
        old = self._entries.get(meta.key)
        if old is not None:
            self._debit(old)
        self._entries[meta.key] = meta
        self.bytes_on_node[meta.node] = \
            self.bytes_on_node.get(meta.node, 0.0) + meta.size

    def register_many(self, metas: Iterable[MapOutputMeta]) -> None:
        for meta in metas:
            self.register(meta)

    def _debit(self, meta: MapOutputMeta) -> None:
        self.bytes_on_node[meta.node] = \
            self.bytes_on_node.get(meta.node, 0.0) - meta.size

    def drop_node(self, node: int) -> LossReport:
        """A node died: every map output persisted on it is gone (but
        stashed, in case the failure turns out to be transient)."""
        report = LossReport(node)
        for key in [k for k, m in self._entries.items() if m.node == node]:
            report.lost_map_outputs.append(self._entries.pop(key))
        self.bytes_on_node[node] = 0.0
        self._offline[node] = list(report.lost_map_outputs)
        return report

    def restore_node(self, node: int) -> list[MapOutputMeta]:
        """A dead node rejoined with its disk intact: its stashed map
        outputs return, except those made stale while it was down — the
        (job, task) was regenerated elsewhere, the origin partition was
        split (Fig. 5), or the job was reclaimed by the hybrid strategy."""
        restored = []
        for meta in self._offline.pop(node, []):
            if meta.key in self._entries:
                continue
            if meta.origin is not None and meta.origin in self._invalidated:
                continue
            if meta.job_index in self._reclaimed:
                continue
            self.register(meta)
            restored.append(meta)
        return restored

    def discard_offline(self, node: int) -> None:
        """Forget a dead node's stash (fail-stop confirmed, or the disk
        was wiped during the repair)."""
        self._offline.pop(node, None)

    def invalidate_by_origin(self, origin: PartitionRef) -> list[MapOutputMeta]:
        """Fig. 5 rule: drop every entry whose input partition was
        regenerated with different block boundaries (split)."""
        self._invalidated.add(origin)
        victims = [m for m in self._entries.values() if m.origin == origin]
        for meta in victims:
            del self._entries[meta.key]
            self._debit(meta)
        return victims

    def reclaim_jobs(self, jobs: Iterable[int]) -> float:
        """Hybrid strategy (§IV-C): the persisted map outputs of ``jobs``
        (``hybrid_reclaimable``'s map set: jobs shielded behind intact
        replicated anchors) can be discarded.  Returns the bytes freed."""
        doomed = set(jobs)
        freed = 0.0
        for key in [k for k in self._entries if k[0] in doomed]:
            meta = self._entries.pop(key)
            self._debit(meta)
            freed += meta.size
        self._reclaimed |= doomed
        return freed

    def drop_jobs_after(self, anchor: int) -> float:
        """Graceful degradation: the chain rolled back to ``anchor``; map
        outputs of later jobs describe output layouts that no longer exist.
        Returns the bytes freed."""
        freed = 0.0
        for key in [k for k in self._entries if k[0] > anchor]:
            meta = self._entries.pop(key)
            self._debit(meta)
            freed += meta.size
        for node, stash in self._offline.items():
            self._offline[node] = [m for m in stash
                                   if m.job_index <= anchor]
        return freed

    def clear(self) -> None:
        """Discard everything (OPTIMISTIC restart)."""
        self._entries.clear()
        self.bytes_on_node.clear()
        self._offline.clear()
        self._invalidated.clear()
        self._reclaimed.clear()

    # ------------------------------------------------------------- queries
    def get(self, job_index: int, task_id: int) -> Optional[MapOutputMeta]:
        return self._entries.get((job_index, task_id))

    def entries_for_job(self, job_index: int) -> dict[int, MapOutputMeta]:
        return {m.task_id: m for m in self._entries.values()
                if m.job_index == job_index}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes_on_node.values())
