"""Cross-run result cache: lineage fingerprints and prefix adoption.

RCMP makes recomputation the recovery path; this module makes it the
*reuse* path too (ReStore's observation, adapted to positional chains).
The chain service re-runs identical and overlapping chains from scratch
on every submission, yet the canonical record codec already makes every
job output a pure function of the chain's input identity and the job's
position.  So:

* :func:`chain_fingerprints` assigns each job output a
  :class:`LineageFingerprint` — a canonical hash chaining the input
  identity (seed, records_per_node, value_size, node/partition layout)
  through the UDF identity and the *dependency structure*: each job
  hashes the sorted fingerprints of its actual parents, linear or DAG.
  Two submissions that share an upstream subgraph of work share its
  fingerprints, regardless of chain length, strategy, or blocking knobs
  (reduce output per partition is invariant to ``records_per_block``
  and ``split_ratio``, so those deliberately stay out of the hash).
* :class:`CacheRegistry` persists, under the service workdir, which
  fingerprints have surviving on-disk pieces, where, and how large —
  JSON state reloaded and re-verified against the disk on service
  restart.  Admission happens when a chain completes; adoption walks a
  new chain's fingerprint frontier and hands the largest
  resident-and-intact dependency-closed cached subgraph (the classic
  longest prefix on a linear chain) to
  :meth:`~repro.runtime.coordinator.ChainRun.adopt_prefix`.
* Eviction is LRU over a byte budget.  It never unlinks a piece a
  running chain adopted (adoption *pins* entries until the chain
  releases them) and stays consistent with the rest of the lifecycle:
  a node death invalidates every entry it touched (a dead piece is just
  RCMP damage to the adopting chain — recovery recomputes it), and
  hybrid reclamation simply never admits what it already deleted.

The cache needs no transport changes: adopted pieces are served across
chain namespaces by the existing shuffle path (``serve_request`` scopes
reads by the request's ``chain`` field), and replica copies made *of*
adopted pieces always land in the adopting chain's own namespace.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.localexec import md5 as _md5_mod
from repro.localexec import records as _records_mod
from repro.localexec.engine import LocalJobConfig
from repro.runtime.recovery import JobGraph, adoptable_closure
from repro.runtime.storage import NodeStore

_LOG = logging.getLogger(__name__)

#: hex digest naming one job output's lineage position (see
#: :func:`chain_fingerprints`)
LineageFingerprint = str

_REGISTRY_NAME = "cache_registry.json"
_FORMAT_VERSION = 1


# ----------------------------------------------------------- fingerprints
def udf_identity() -> str:
    """Hash of the source of the UDFs.

    The fingerprint must change when the computation changes, so the
    identity is the *source text* of the map/reduce/partition functions
    rather than a version constant someone would forget to bump: the
    per-record definitions and the batch forms the workers execute —
    down to the digest helper and the MD5 kernel under them — which are
    what actually decides a stored piece's bytes."""
    h = hashlib.md5()
    for fn in (_records_mod.generate_records, _records_mod.map_udf,
               _records_mod.reduce_udf, _records_mod.partition_of,
               _records_mod.generate_batch, _records_mod.map_batch,
               _records_mod.reduce_batch, _records_mod._digests,
               _md5_mod.md5_rows, _md5_mod.md5_text, _md5_mod._decimal,
               _md5_mod._compress):
        h.update(inspect.getsource(fn).encode())
    return h.hexdigest()


def chain_fingerprints(chain: LocalJobConfig,
                       n_nodes: int) -> list[LineageFingerprint]:
    """Per-job lineage fingerprints for a chain, jobs ``1..n_jobs``.

    ``fp[j]`` hashes the chain input identity, the UDF identity, and
    the fingerprints of the job's *actual* dependencies — the sorted
    set of parent fingerprints, so the dependency structure is part of
    every hash (job 3 of a diamond, reading job 1, can never collide
    with job 3 of a linear chain, reading job 2) while two DAG shapes
    that feed a job the same upstream outputs still share its
    fingerprint.  On a linear chain this degenerates to chaining
    ``fp[j-1]``, byte-identical to the historical scheme, so existing
    cache state stays valid.  ``records_per_block`` and ``split_ratio``
    are deliberately excluded: a partition's reduce output is invariant
    to block boundaries and piece splits, and hashing them would only
    manufacture misses."""
    identity = json.dumps({
        "seed": chain.seed,
        "records_per_node": chain.records_per_node,
        "value_size": chain.value_size,
        "n_nodes": n_nodes,
        "n_partitions": chain.n_partitions,
        "udf": udf_identity(),
    }, sort_keys=True).encode()
    graph = chain.graph()
    input_fp = hashlib.md5(b"chain-input:" + identity).hexdigest()
    fps: list[LineageFingerprint] = []
    for job in range(1, chain.n_jobs + 1):
        parents = graph.parents(job)
        if not parents:
            digest = input_fp
        elif len(parents) == 1:
            digest = fps[parents[0] - 1]
        else:
            # sorted: a job's output is the reduce over the *union* of
            # its parents' records, invariant to parent order
            digest = "+".join(sorted(fps[p - 1] for p in parents))
        fps.append(hashlib.md5(f"job:{job}:{digest}".encode())
                   .hexdigest())
    return fps


# ----------------------------------------------------------------- entries
@dataclass(frozen=True)
class CachedPiece:
    """One surviving on-disk reduce piece of a cached job output.

    ``chain`` is the namespace the file physically lives in — usually
    the producing chain, but a partially recomputed producer may leave
    an entry whose pieces span several namespaces."""

    partition: int
    split_index: int
    n_splits: int
    node: int
    n_records: int
    size: int
    chain: str

    def to_json(self) -> list:
        return [self.partition, self.split_index, self.n_splits,
                self.node, self.n_records, self.size, self.chain]

    @classmethod
    def from_json(cls, row: list) -> "CachedPiece":
        return cls(*row[:6], str(row[6]))


@dataclass
class CacheEntry:
    """One cached job output: a fingerprint's surviving pieces."""

    fingerprint: LineageFingerprint
    job: int                      # position in the producing chain
    n_partitions: int
    pieces: list[CachedPiece] = field(default_factory=list)
    bytes: int = 0
    created: float = 0.0
    last_used: float = 0.0

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "job": self.job,
            "n_partitions": self.n_partitions,
            "bytes": self.bytes,
            "created": self.created,
            "last_used": self.last_used,
            "pieces": [p.to_json() for p in self.pieces],
        }

    @classmethod
    def from_json(cls, row: dict) -> "CacheEntry":
        return cls(fingerprint=str(row["fingerprint"]),
                   job=int(row["job"]),
                   n_partitions=int(row["n_partitions"]),
                   pieces=[CachedPiece.from_json(p)
                           for p in row["pieces"]],
                   bytes=int(row["bytes"]),
                   created=float(row.get("created", 0.0)),
                   last_used=float(row.get("last_used", 0.0)))


# ---------------------------------------------------------------- registry
class CacheRegistry:
    """Persistent fingerprint -> surviving-pieces map with an LRU budget.

    Thread-safe: the service loop adopts while chain threads admit and
    release.  Every mutation persists the JSON state atomically, so a
    service restart (same workdir) reloads it and re-verifies each
    piece file against the disk before trusting it.

    Lifecycle rules, in order of authority:

    * **pins** — a running chain that adopted an entry pins it; a pinned
      entry is never evicted and its files are never unlinked.
    * **death** — a node death invalidates every entry with a piece on
      that node (the cache only tracks sole copies).  Unpinned entries
      unlink their surviving files immediately; pinned ones are *doomed*
      — dropped from lookup now, files reaped when the last adopter
      releases (the adopting chain's RCMP recovery is mid-flight over
      those very files).
    * **budget** — admission evicts least-recently-used unpinned entries
      until the byte total fits, unlinking their files: beyond the
      budget, the close-time namespace sweep means nothing else grows
      the workdir.
    * **reclamation** — hybrid reclamation deletes files *before*
      completion, so admission simply skips jobs whose registry coverage
      is gone; nothing to undo."""

    def __init__(self, root: str | Path, budget_bytes: int):
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self.root = Path(root)
        self.budget_bytes = budget_bytes
        self.path = self.root / _REGISTRY_NAME
        self.entries: dict[LineageFingerprint, CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        #: entries dropped by restart rescans because their files were
        #: gone or truncated (a subset of ``invalidated``)
        self.rescan_invalidated = 0
        self._pins: dict[LineageFingerprint, set[str]] = {}
        self._doomed: dict[LineageFingerprint, CacheEntry] = {}
        self._lock = threading.RLock()
        self._clock = time.monotonic

    # -- persistence ----------------------------------------------------
    def load(self) -> int:
        """Reload persisted state, re-verifying every piece file on
        disk (size included); entries that lost any file are dropped
        and their survivors unlinked.  Returns the entry count kept."""
        with self._lock:
            self.entries.clear()
            try:
                state = json.loads(self.path.read_text())
            except OSError:
                if self.path.exists():
                    _LOG.warning("cache registry %s unreadable; "
                                 "starting empty", self.path)
                return 0
            except ValueError:
                _LOG.warning("cache registry %s is corrupt; "
                             "starting empty", self.path)
                return 0
            counters = state.get("counters", {})
            self.hits = int(counters.get("hits", 0))
            self.misses = int(counters.get("misses", 0))
            self.evictions = int(counters.get("evictions", 0))
            self.invalidated = int(counters.get("invalidated", 0))
            self.rescan_invalidated = int(
                counters.get("rescan_invalidated", 0))
            dropped = 0
            for row in state.get("entries", []):
                try:
                    entry = CacheEntry.from_json(row)
                except (KeyError, TypeError, ValueError):
                    dropped += 1
                    continue
                if self._intact(entry):
                    self.entries[entry.fingerprint] = entry
                else:
                    self._unlink_entry(entry)
                    dropped += 1
            if dropped:
                # files vanishing between runs is survivable (the chain
                # just recomputes) but worth an operator's attention —
                # it usually means something else writes to the workdir
                self.invalidated += dropped
                self.rescan_invalidated += dropped
                _LOG.warning(
                    "cache rescan dropped %d of %d persisted entries "
                    "(files missing, truncated, or rows corrupt)",
                    dropped, len(state.get("entries", [])))
            self._save_locked()
            return len(self.entries)

    def _save_locked(self) -> None:
        state = {
            "version": _FORMAT_VERSION,
            "counters": {"hits": self.hits, "misses": self.misses,
                         "evictions": self.evictions,
                         "invalidated": self.invalidated,
                         "rescan_invalidated": self.rescan_invalidated},
            "entries": [e.to_json() for e in
                        sorted(self.entries.values(),
                               key=lambda e: e.fingerprint)],
        }
        NodeStore._write_atomic(self.path,
                                json.dumps(state, indent=1).encode())

    # -- disk helpers ---------------------------------------------------
    def _piece_path(self, entry: CacheEntry, piece: CachedPiece) -> Path:
        return NodeStore(self.root, piece.node,
                         chain=piece.chain).piece_path(
            entry.job, piece.partition, piece.split_index, piece.n_splits)

    def _intact(self, entry: CacheEntry) -> bool:
        for piece in entry.pieces:
            try:
                if self._piece_path(entry, piece).stat().st_size \
                        != piece.size:
                    return False
            except OSError:
                return False
        return True

    def _unlink_entry(self, entry: CacheEntry,
                      skip_node: Optional[int] = None) -> None:
        """Delete an entry's backing files (best-effort) and prune the
        directories they leave empty, up to (and including) the piece's
        chain namespace dir.  The prune boundary is derived from the
        store layout — a fixed parent count silently walked past the
        namespace root whenever the layout put the piece at a different
        depth (e.g. an un-namespaced piece), deleting node state that
        was never the cache's to manage."""
        for piece in entry.pieces:
            if piece.node == skip_node:
                continue
            store = NodeStore(self.root, piece.node, chain=piece.chain)
            path = store.piece_path(entry.job, piece.partition,
                                    piece.split_index, piece.n_splits)
            path.unlink(missing_ok=True)
            for parent in path.parents:
                if not parent.is_relative_to(store.dir):
                    break  # never prune above the namespace root
                try:
                    parent.rmdir()
                except OSError:
                    break

    # -- adoption -------------------------------------------------------
    def adopt(self, fingerprints: list[LineageFingerprint],
              chain_id: str,
              graph: Optional[JobGraph] = None) -> list[CacheEntry]:
        """The largest resident-and-intact *dependency-closed* cached
        subgraph of a chain's fingerprint frontier, pinned to
        ``chain_id``.

        ``graph`` is the chain's dependency DAG (linear when omitted).
        A job is adoptable only if every job it depends on is adoptable
        too (:func:`adoptable_closure`) — on a linear chain that is the
        classic longest contiguous prefix, on a DAG it may skip a lost
        sibling branch while keeping the rest.  Each candidate entry is
        stat-verified against the disk right here — an entry whose
        files were lost out-of-band is invalidated and drops out of the
        closure.  Counts one hit per adopted job and one miss per job
        the chain must execute."""
        if graph is None:
            graph = JobGraph.linear(len(fingerprints))
        with self._lock:
            resident: dict[int, CacheEntry] = {}
            for job, fp in enumerate(fingerprints, start=1):
                entry = self.entries.get(fp)
                if entry is None:
                    continue
                if not self._intact(entry):
                    self._unlink_entry(entry)
                    del self.entries[fp]
                    self.invalidated += 1
                    _LOG.warning(
                        "cache entry for job %d (fp %.12s) lost its "
                        "files out-of-band; invalidated at adoption",
                        job, fp)
                    continue
                resident[job] = entry
            adopted = [resident[job]
                       for job in adoptable_closure(resident, graph)]
            now = self._clock()
            for entry in adopted:
                entry.last_used = now
                self._pins.setdefault(entry.fingerprint,
                                      set()).add(chain_id)
            self.hits += len(adopted)
            self.misses += len(fingerprints) - len(adopted)
            if adopted:
                self._save_locked()
            return adopted

    def release(self, chain_id: str) -> None:
        """Drop ``chain_id``'s pins; reap doomed entries it was the
        last adopter of."""
        with self._lock:
            for fp in list(self._pins):
                pins = self._pins[fp]
                pins.discard(chain_id)
                if pins:
                    continue
                del self._pins[fp]
                doomed = self._doomed.pop(fp, None)
                if doomed is not None:
                    self._unlink_entry(doomed)

    # -- admission ------------------------------------------------------
    def admit(self, fingerprints: list[LineageFingerprint],
              chain_id: str, registry) -> int:
        """Cache a completed chain's job outputs from its
        :class:`~repro.runtime.storage.ClusterRegistry`.

        Jobs already cached are touched, not duplicated (the second
        producer's files are swept at chain close).  Jobs whose
        coverage is gone — hybrid-reclaimed behind an anchor — are
        skipped.  Each admitted piece records the namespace it
        physically lives in (``entry.chain`` of the registry row, which
        is a donor chain for adopted pieces the chain never rewrote).
        Returns the number of newly admitted jobs."""
        with self._lock:
            now = self._clock()
            admitted = 0
            for job, fp in enumerate(fingerprints, start=1):
                existing = self.entries.get(fp)
                if existing is not None:
                    existing.last_used = now
                    continue
                if fp in self._doomed:
                    continue
                partitions = registry.pieces.get(job, {})
                if not partitions:
                    continue
                n_partitions = len(partitions)
                if not registry.coverage_complete(job, n_partitions):
                    continue
                entry = CacheEntry(fp, job, n_partitions,
                                   created=now, last_used=now)
                intact = True
                for partition in sorted(partitions):
                    for row in partitions[partition]:
                        namespace = getattr(row, "chain", None) or chain_id
                        path = NodeStore(
                            self.root, row.node,
                            chain=namespace).piece_path(
                            job, row.partition, row.split_index,
                            row.n_splits)
                        try:
                            size = path.stat().st_size
                        except OSError:
                            intact = False
                            break
                        entry.pieces.append(CachedPiece(
                            row.partition, row.split_index, row.n_splits,
                            row.node, row.n_records, size, namespace))
                        entry.bytes += size
                    if not intact:
                        break
                if not intact or entry.bytes > self.budget_bytes:
                    continue
                self.entries[fp] = entry
                admitted += 1
            self._enforce_budget_locked()
            self._save_locked()
            return admitted

    # -- invalidation ---------------------------------------------------
    def on_death(self, node: int) -> int:
        """A node died: every entry with a piece there lost its only
        copy of that piece.  Unpinned entries go away now (surviving
        files unlinked); pinned ones are doomed — the adopting chain's
        recovery is reading the survivors, so reaping waits for its
        release.  Returns the number of entries invalidated."""
        with self._lock:
            dropped = 0
            for fp in [fp for fp, e in self.entries.items()
                       if any(p.node == node for p in e.pieces)]:
                entry = self.entries.pop(fp)
                dropped += 1
                if self._pins.get(fp):
                    self._doomed[fp] = entry
                else:
                    self._unlink_entry(entry, skip_node=node)
            self.invalidated += dropped
            if dropped:
                self._save_locked()
            return dropped

    # -- budget ---------------------------------------------------------
    def _enforce_budget_locked(self) -> None:
        while self.total_bytes > self.budget_bytes:
            victims = sorted(
                (e for e in self.entries.values()
                 if not self._pins.get(e.fingerprint)),
                key=lambda e: e.last_used)
            if not victims:
                return  # everything over budget is pinned; retry later
            victim = victims[0]
            del self.entries[victim.fingerprint]
            self._unlink_entry(victim)
            self.evictions += 1

    # -- queries --------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(e.bytes for e in self.entries.values())

    def kept_jobs(self, chain_id: str) -> set[int]:
        """Job ordinals whose cached files live in ``chain_id``'s
        namespace — what the close-time sweep must preserve (doomed
        entries included: their files are reaped at release, not by
        the sweep)."""
        with self._lock:
            keep: set[int] = set()
            for entry in list(self.entries.values()) \
                    + list(self._doomed.values()):
                for piece in entry.pieces:
                    if piece.chain == chain_id:
                        keep.add(entry.job)
            return keep

    def namespaces(self) -> set[str]:
        """Every chain namespace holding cached files (restart helper:
        the service must not reissue these chain ids)."""
        with self._lock:
            return {p.chain for e in self.entries.values()
                    for p in e.pieces}

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidated": self.invalidated,
                "rescan_invalidated": self.rescan_invalidated,
                "entries": len(self.entries),
                "bytes": self.total_bytes,
                "budget_bytes": self.budget_bytes,
                "hit_rate": round(
                    self.hits / max(1, self.hits + self.misses), 4),
            }


def scan_chain_sequence(workdir: str | Path) -> int:
    """Highest numeric ``cNNNN`` chain id found anywhere under the
    workdir (namespace dirs of past service incarnations, cached or
    stale).  A restarting service seeds its id sequence past this so a
    new chain can never collide with — and silently overwrite — files a
    cache entry still references."""
    top = 0
    root = Path(workdir)
    if not root.is_dir():
        return 0
    for path in root.glob("node*/chains/c*"):
        try:
            top = max(top, int(path.name[1:]))
        except ValueError:
            continue
    return top


__all__ = [
    "CachedPiece",
    "CacheEntry",
    "CacheRegistry",
    "LineageFingerprint",
    "chain_fingerprints",
    "scan_chain_sequence",
    "udf_identity",
]
