"""Node-local persisted outputs and the coordinator's damage inventory.

On-disk layout (``repro.dfs``-compatible: one directory per node, one
single-replica file per stored object, exactly what a collocated
compute/storage node loses when it dies)::

    <root>/node03/map/job2.seg                    one job's map outputs
    <root>/node03/reduce/job1/part2/s1of3.bin     one stored piece

A node's map outputs of one job are one append-only segment: a task
commits by appending one section to a kept-open handle (no file created,
renamed or unlinked per task).  A section is a header, then Hadoop's
shape, a partition index in front of the slices (one fsync commits all
of a task's slices or none)::

    u64 bytes of body | i64 task id | body: u32 bytes of slots | i64
    task id, origin job, origin partition (-1 = none) | per slice: u32
    partition, u64 offset past the index, u64 length, u32 record count |
    the encoded slices, concatenated

A task's later section wins; a bodiless one is a dropped output's
tombstone.  The disk is the truth and an open segment's index a cache of
it: :func:`scan_map_segment` rebuilds it from the headers alone.

Records are framed binary — 8-byte big-endian key, 4-byte length, value —
so a partition's bytes are a pure function of its record multiset and the
final-output checksum is comparable byte-for-byte across backends
(:func:`chain_checksum` is the single definition both the in-process and
the multi-process backend report).  The paper's UDFs keep every value of
a stage the same size, so a stored slice or piece *is* an ``n x (12 + L)``
byte matrix — row = key (8) | L (4) | value (L) — and the workers never
leave that shape: :func:`decode_columns` reshapes it into ``keys:
uint64[n]`` plus the ``n x L`` value matrix without copying a value,
:func:`encode_columns` is the inverse, and :func:`filter_split_spans` /
:func:`partition_columns` route by one mask over the key column.  Bytes
that are no such matrix (ragged values, a torn frame) take the frame
walk, with the same truncation errors.

A piece is written through a temp file + ``os.replace`` (other processes
read pieces by name), a section by append + ``fsync`` and only then
published in the index, so a ``SIGKILL`` mid-write can never surface torn
bytes as a committed output — half a section is a torn tail every scan
ignores and the segment's next writer truncates — and the coordinator only
learns about an output from the worker's commit message, which is sent
after the data is durable.

:class:`ClusterRegistry` is the coordinator-side metadata: which node
persists which map output and which reducer piece — the same shape as
:class:`repro.localexec.engine.LocalCluster`'s in-memory maps.  On a
worker death it produces the damage inventory (lost piece signatures per
partition) the shared recovery planner consumes.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from repro.localexec.records import Record, partition_of, split_of
from repro.runtime.recovery import PARENT_STRIDE, STRIDE, PieceSignature

_KEY = struct.Struct(">QI")
FRAME_HEADER = _KEY.size  # a frame's value starts this far past its start
#: map-segment section: header (body bytes that follow, task id), index
#: head (slot bytes that follow, task id, origin job, origin partition),
#: then one slot (partition, offset, length, record count) per slice
_SECTION = struct.Struct(">Qq")
_INDEX_HEAD = struct.Struct(">Iqqq")
_INDEX_SLOT = struct.Struct(">IQQI")


# --------------------------------------------------------------- record codec
def _frame_dtype(length: int) -> np.dtype:
    """One frame of an ``length``-byte value as a numpy record."""
    return np.dtype([("key", ">u8"), ("length", ">u4"),
                     ("value", np.uint8, (length,))])


def encode_columns(keys: np.ndarray, values: np.ndarray) -> bytes:
    """Frame a column batch.  An ``n x L`` value matrix makes the frames
    ``n`` fixed-size rows, so keys, the constant length field and the
    values each land with one vectorized column write into one
    preallocated buffer; a ragged (object) value column takes the
    per-record loop."""
    if values.ndim == 1:
        return b"".join([_KEY.pack(key, len(value)) + value
                         for key, value in zip(keys.tolist(), values)])
    out = np.empty(len(keys), _frame_dtype(values.shape[1]))
    out["key"], out["length"], out["value"] = keys, values.shape[1], values
    return out.tobytes()


def encode_records(records: Iterable[Record]) -> bytes:
    """Canonical framed encoding of a record sequence.

    Every real workload here carries uniform-size values, which encode
    as columns (:func:`encode_columns`).  Ragged values — and keys
    outside the u64 range numpy can vectorize, which ``pack`` rejects
    below anyway — take the per-record loop."""
    records = records if isinstance(records, list) else list(records)
    values = [rec.value for rec in records]
    if len(set(map(len, values))) == 1:
        try:
            return encode_columns(
                np.array([rec.key for rec in records], dtype=np.uint64),
                np.frombuffer(b"".join(values), np.uint8).reshape(
                    len(records), len(values[0])))
        except OverflowError:
            pass
    return b"".join([_KEY.pack(rec.key, len(rec.value)) + rec.value
                     for rec in records])


def iter_record_frames(data):
    """Yield ``(key, start, end)`` raw frame spans of the framed encoding.

    The streaming primitive behind :func:`decode_records` and
    :func:`filter_split`: walking the frames costs two struct reads per
    record and never materializes a ``Record``, which is what the shuffle
    serve path wants — it only needs keys (for split routing) and raw
    byte spans (to forward verbatim).  ``data`` may be ``bytes`` or a
    ``memoryview`` — ``unpack_from`` reads either without copying."""
    offset = 0
    size = len(data)
    while offset < size:
        if size - offset < _KEY.size:
            raise ValueError("truncated record header")
        key, length = _KEY.unpack_from(data, offset)
        end = offset + _KEY.size + length
        if end > size:
            raise ValueError("truncated record value")
        yield key, offset, end
        offset = end


def iter_records(data: bytes, start: int = 0, count: Optional[int] = None):
    """Lazily decode the framed encoding into :class:`Record`s.

    ``start``/``count`` select the records ``[start, start + count)``:
    the frames before the range are walked by header only — with the
    same truncation checks, so a torn frame ahead of the range still
    raises — and the frames after it are never touched.  A map task
    reading one block of an upstream piece pays for its block."""
    frames = iter_record_frames(data)
    if start or count is not None:
        frames = islice(frames, start,
                        None if count is None else start + count)
    for key, lo, hi in frames:
        yield Record(key, data[lo + _KEY.size:hi])


def decode_records(data: bytes) -> list[Record]:
    return list(iter_records(data))


def _frame_rows(data) -> Optional[np.ndarray]:
    """``data`` as fixed-size frame rows (:func:`_frame_dtype`, a
    zero-copy view) when it is that: the size divides by the first
    frame's stride and every length field equals the first.  ``None``
    otherwise (ragged, torn, or empty): the caller walks the frames."""
    if len(data) < FRAME_HEADER:
        return None
    length = _KEY.unpack_from(data)[1]
    if len(data) % (FRAME_HEADER + length):
        return None
    rows = np.frombuffer(data, _frame_dtype(length))
    return None if (rows["length"] != length).any() else rows


def decode_columns(data, start: int = 0, count: Optional[int] = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The framed encoding as ``(keys, values)`` columns — what
    ``list(iter_records(data, start, count))`` holds, same range
    semantics, same truncation errors.  Uniform frames decode without a
    copy of the values; anything else walks the frames into a ragged
    (object) value column."""
    stop = None if count is None else start + count
    rows = _frame_rows(data)
    if rows is not None:
        return (rows["key"][start:stop].astype(np.uint64),
                rows["value"][start:stop])
    walked = list(islice(iter_record_frames(data), start, stop))
    return (np.array([key for key, _, _ in walked], dtype=np.uint64),
            np.array([bytes(data[lo + FRAME_HEADER:hi])
                      for _, lo, hi in walked], dtype=object))


def partition_columns(keys: np.ndarray, values: np.ndarray,
                      n_partitions: int) -> dict[int, tuple[int, bytes]]:
    """Route a column batch by ``partition_of``: partition -> (record
    count, encoded slice), ascending, batch order kept within a slice."""
    routes = partition_of(keys, n_partitions).astype(np.intp)
    # bincount, not np.unique: unique's first call imports numpy.ma —
    # 12-15 ms of CPU in every freshly forked worker
    counts = np.bincount(routes, minlength=n_partitions)
    slices = {}
    for partition in np.flatnonzero(counts).tolist():
        mine = routes == partition
        slices[partition] = (int(counts[partition]),
                             encode_columns(keys[mine], values[mine]))
    return slices


def filter_split_spans(data, split_index: int, n_splits: int
                       ) -> list[memoryview]:
    """The frames of ``data`` routing to ``split_index`` of a
    ``n_splits``-way split, as ``memoryview`` spans the serve path can
    hand to ``socket.sendmsg`` verbatim.

    Uniform frames take ``split_of`` as one mask over the key column and
    come back as one gathered span (hashed keys leave runs of one or two
    frames: a copy beats thousands of tiny spans).  Anything else walks
    the frames into one zero-copy span per kept frame, aliasing ``data``
    — callers that outlive ``data`` must join first."""
    mv = data if isinstance(data, memoryview) else memoryview(data)
    if n_splits <= 1:
        return [mv] if len(mv) else []
    rows = _frame_rows(mv)
    if rows is None:
        return [mv[lo:hi] for key, lo, hi in iter_record_frames(mv)
                if split_of(key, n_splits) == split_index]
    rows = rows[split_of(rows["key"].astype(np.uint64), n_splits)
                == split_index]
    return [memoryview(rows.view(np.uint8))] if len(rows) else []


def filter_split(data: bytes, split_index: int, n_splits: int) -> bytes:
    """Keep only the frames whose key routes to ``split_index`` of a
    ``n_splits``-way reducer split.

    Operates on raw frame spans — no ``Record`` objects, no re-encoding —
    so the shuffle server can filter a requested slice before shipping
    it: a k-way split recomputation then ships 1/k of the partition
    bytes instead of sending everything and letting each split reducer
    throw (k-1)/k of it away client-side.  Frame order is preserved, so
    the concatenation of all ``n_splits`` filtrations is a permutation-
    free repartition of ``data`` and decoding is unchanged."""
    if n_splits <= 1:
        return data
    return b"".join(filter_split_spans(data, split_index, n_splits))


def chain_checksum(final_output: dict[int, list[Record]]) -> str:
    """MD5 over the canonical encoding of the chain's final output.

    ``final_output`` maps partition -> records (as returned by
    ``LocalCluster.final_output`` or ``Coordinator.final_output``); records
    are sorted per partition before hashing, so the checksum is independent
    of piece boundaries, split ratios, and execution order."""
    h = hashlib.md5()
    for partition in sorted(final_output):
        records = sorted(final_output[partition])
        h.update(_KEY.pack(partition, len(records)))
        h.update(encode_records(records))
    return h.hexdigest()


def stored_checksum(stored: dict[int, list[tuple[int, bytes]]]) -> str:
    """:func:`chain_checksum` of an output still in its stored form,
    partition -> ``[(record count, piece bytes)]``.  A partition one
    piece covers is its own canonical encoding — a reducer writes unique
    keys in key order — so its bytes are hashed as they are; only a
    partition covered by several split pieces is decoded and sorted."""
    h = hashlib.md5()
    for partition in sorted(stored):
        if len(stored[partition]) == 1:
            (count, data), = stored[partition]
        else:
            records = sorted(record for _, piece in stored[partition]
                             for record in iter_records(piece))
            count, data = len(records), encode_records(records)
        h.update(_KEY.pack(partition, count))
        h.update(data)
    return h.hexdigest()


# ---------------------------------------------------------------- memory tier
class MemoryTier:
    """A write-through RAM cache over a node's on-disk outputs.

    The hot tier of the M3R-style data plane: every committed map slice
    and reduce piece is pinned in memory at commit time and served from
    RAM on the read path (same-worker handoff, shuffle serving), while
    the on-disk file written underneath stays the durability tier RCMP
    recovery depends on.  Above ``budget`` bytes the least-recently-used
    entries *spill* — which here just means eviction, because the disk
    copy was written before the commit message, so a spilled entry is
    re-read from its file on the next access and a ``SIGKILL`` can only
    ever lose what the recovery planner already knows how to recompute.

    Keys are absolute path strings, which makes one tier shareable
    across a worker's chain-namespaced :class:`NodeStore` views and lets
    directory-level invalidation (job drops, hybrid reclaims, chain
    sweeps) evict by path prefix.  Thread-safe: task-slot threads commit
    and read while shuffle-server threads serve."""

    def __init__(self, budget: int):
        if budget <= 0:
            raise ValueError(f"memory tier budget must be positive, "
                             f"got {budget}")
        self.budget = int(budget)
        self._lock = threading.Lock()
        self._entries: dict[str, bytes] = {}  # insertion order = LRU order
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.spills = 0

    def put(self, key: str, data: bytes) -> None:
        """Pin ``data`` under ``key``, evicting LRU entries over budget.

        An object larger than the whole budget is not admitted — it
        would only evict everything else to be evicted itself next."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes -= len(old)
            if len(data) > self.budget:
                return
            self._entries[key] = data
            self.bytes += len(data)
            while self.bytes > self.budget:
                evicted_key = next(iter(self._entries))
                self.bytes -= len(self._entries.pop(evicted_key))
                self.spills += 1

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            data = self._entries.get(key)
            if data is None:
                self.misses += 1
                return None
            # refresh recency: move to the tail of the insertion order
            del self._entries[key]
            self._entries[key] = data
            self.hits += 1
            return data

    def invalidate(self, key: str) -> None:
        with self._lock:
            data = self._entries.pop(key, None)
            if data is not None:
                self.bytes -= len(data)

    def invalidate_prefix(self, prefix: str) -> int:
        """Evict every entry whose key starts with ``prefix`` (a
        directory subtree being dropped/reclaimed/swept).  Returns the
        number of entries evicted."""
        with self._lock:
            doomed = [k for k in self._entries if k.startswith(prefix)]
            for key in doomed:
                self.bytes -= len(self._entries.pop(key))
            return len(doomed)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"budget": self.budget, "bytes": self.bytes,
                    "entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "spills": self.spills}


# ----------------------------------------------------------------- node store
def _scan_segment(fh) -> tuple[dict, int]:
    """Walk an open segment's section headers: ``({task id: (origin,
    {partition: (file offset, length, record count)})}, end of the last
    complete section)``.  A torn tail — what a ``SIGKILL`` cut short — is
    ignored; a *complete* section whose index is inconsistent raises."""
    size = os.fstat(fh.fileno()).st_size
    index, pos = {}, 0
    while pos + _SECTION.size <= size:
        fh.seek(pos)
        body, task_id = _SECTION.unpack(fh.read(_SECTION.size))
        end = pos + _SECTION.size + body
        if end > size:
            break
        if body == 0:
            index.pop(task_id, None)
        else:
            try:
                n, head_task, *origin = _INDEX_HEAD.unpack(
                    fh.read(_INDEX_HEAD.size))
                base = pos + _SECTION.size + _INDEX_HEAD.size + n
                slots = {partition: (base + offset, length, count)
                         for partition, offset, length, count
                         in _INDEX_SLOT.iter_unpack(fh.read(n))}
            except struct.error as exc:
                raise ValueError(
                    f"corrupt map output index: {fh.name}") from exc
            if head_task != task_id or base > end or any(
                    offset + length > end
                    for offset, length, _ in slots.values()):
                raise ValueError(f"truncated map output: {fh.name}")
            index[task_id] = (tuple(origin) if origin[0] >= 0 else None,
                              slots)
        pos = end
    return index, pos


def scan_map_segment(path: str | Path) -> dict:
    """The live outputs of a map segment file, from its headers alone:
    ``{task id: (origin, {partition: (file offset, length, count)})}``."""
    with open(path, "rb") as fh:
        return _scan_segment(fh)[0]


def _read_slot(fh, index: dict, task_id: int, partition: int) -> bytes:
    """One slice of a segment: ``KeyError`` when the task has no live
    section, never a short read."""
    offset, length, _ = index[task_id][1].get(partition, (0, 0, 0))
    data = os.pread(fh.fileno(), length, offset)
    if len(data) != length:
        raise ValueError(f"truncated map output: {fh.name}")
    return data


def _unlink(path: Path) -> int:
    """Unlink a file; the bytes freed (0 when it was already gone)."""
    try:
        freed = path.stat().st_size
        path.unlink()
        return freed
    except FileNotFoundError:
        return 0


class _Segment:
    """An open segment: the ``a+b`` handle (appends land at the end,
    ``pread`` anywhere) and the index.  ``lock`` frames appends, preads
    and the close — never an fsync, so readers do not wait for the disk."""

    def __init__(self, fh):
        self.fh = fh
        self.lock = threading.Lock()
        self.index, self.size = _scan_segment(fh)
        if fh.seek(0, os.SEEK_END) > self.size:
            fh.truncate(self.size)  # a dead incarnation's torn tail


class NodeStore:
    """One node's single-replica on-disk storage.

    ``chain`` namespaces the layout for the multi-tenant chain service:
    ``chain=None`` keeps the classic single-chain layout
    (``<root>/nodeNNN/...``) byte-for-byte, while a chain id moves every
    file under ``<root>/nodeNNN/chains/<chain>/...`` so concurrent
    chains sharing one worker pool can never collide on a
    ``(job, task)`` or ``(job, partition, split)`` path.

    A store is the one writer of its node's map segments; the ones it has
    open are shared with its :meth:`for_chain` views, keyed by path like
    the memory tier, and closed by :meth:`close` or with their file."""

    def __init__(self, root: str | Path, node: int,
                 chain: Optional[str] = None,
                 memory: Optional[MemoryTier] = None):
        self.node = node
        self.root = Path(root)
        self.chain = chain
        self.memory = memory
        self.dir = self.root / f"node{node:03d}"
        if chain is not None:
            self.dir = self.dir / "chains" / str(chain)
        self._segments: dict[str, _Segment] = {}
        self._segments_lock = threading.Lock()

    def for_chain(self, chain: Optional[str]) -> "NodeStore":
        """The same node's store under ``chain``'s namespace (``self``
        when the chain id already matches — the common single-chain
        case pays nothing).  The memory tier and open segments are shared
        across namespace views: keys are absolute paths, never colliding."""
        if chain == self.chain:
            return self
        view = NodeStore(self.root, self.node, chain=chain,
                         memory=self.memory)
        view._segments = self._segments
        view._segments_lock = self._segments_lock
        return view

    def close(self) -> None:
        """Close this namespace's (the root store: every chain's) open
        segment handles; the files stay."""
        self._close_segments(f"{self.dir}{os.sep}")

    # -- paths ----------------------------------------------------------
    def map_segment_path(self, job: int) -> Path:
        return self.dir / "map" / f"job{job}.seg"

    def piece_path(self, job: int, partition: int, split_index: int,
                   n_splits: int) -> Path:
        return (self.dir / "reduce" / f"job{job}" / f"part{partition}"
                / f"s{split_index}of{n_splits}.bin")

    # -- map segments ---------------------------------------------------
    def _segment(self, path: Path, create: bool = False
                 ) -> Optional[_Segment]:
        """The segment at ``path``, opened on first use (``None`` when
        there is no such file and ``create`` is not set)."""
        with self._segments_lock:
            seg = self._segments.get(str(path))
            if seg is None and (create or path.exists()):
                path.parent.mkdir(parents=True, exist_ok=True)
                seg = self._segments[str(path)] = _Segment(open(path, "a+b"))
            return seg

    def _close_segments(self, prefix: str) -> None:
        with self._segments_lock:
            doomed = [self._segments.pop(key) for key in list(self._segments)
                      if key.startswith(prefix)]
        for seg in doomed:
            with seg.lock:
                seg.fh.close()

    def _drop_segment(self, job: int) -> int:
        """Evict, close and unlink one job's segment; the bytes freed."""
        path = self.map_segment_path(job)
        if self.memory is not None:
            self.memory.invalidate_prefix(f"{path}#")
        self._close_segments(str(path))
        return _unlink(path)

    # -- writes ---------------------------------------------------------
    @staticmethod
    def _write_atomic(path: Path, *chunks: bytes) -> None:
        # the tmp name carries pid + thread id: a multi-slot worker may
        # execute a re-dispatched duplicate of a task concurrently with
        # the original attempt, and two writers sharing one tmp path
        # could interleave into a torn rename
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            fh = open(tmp, "wb")
        except FileNotFoundError:
            # first write into the directory, or a sweep / ``drop_job``
            # removed it since: "exists" is never cached
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(tmp, "wb")
        with fh:
            fh.writelines(chunks)
            fh.flush()
            # the disk tier is the durability story recovery depends on:
            # fsync before the rename so the committed name can never
            # point at data the page cache lost in a host crash
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # The one tolerated crash window: dying *between* the write and
        # the rename leaves a stale ``*.tmp`` the committed name never
        # points at — the commit message is only sent after the rename,
        # so the coordinator treats the task as never-completed and
        # recomputes it; the orphan tmp is swept with its job directory.

    def _commit(self, path: Path, data: bytes) -> None:
        """Write-through commit: durable file first, then pin the bytes
        hot in the memory tier (commit order matters — a reader must
        never see a memory entry whose disk copy could still be lost to
        a ``SIGKILL``)."""
        self._write_atomic(path, data)
        if self.memory is not None:
            self.memory.put(str(path), data)

    def write_map_slices(self, job: int, task_id: int,
                         origin: Optional[tuple[int, int]],
                         slices: dict[int, tuple[int, bytes]]
                         ) -> dict[int, int]:
        """Persist one mapper's encoded per-partition shuffle slices
        (partition -> ``(record count, bytes)``) as one section appended
        to the job's segment — one fsync, all slices or none, published
        in the index only then — and pin each slice hot under
        ``<segment>#<task>#<partition>``; returns the per-partition
        record counts (the commit message payload)."""
        path = self.map_segment_path(job)
        slots, offset = {}, 0
        for partition, (count, data) in slices.items():
            slots[partition] = (offset, len(data), count)
            offset += len(data)
        index = b"".join(_INDEX_SLOT.pack(p, *slot)
                         for p, slot in slots.items())
        head = (_SECTION.pack(_INDEX_HEAD.size + len(index) + offset, task_id)
                + _INDEX_HEAD.pack(len(index), task_id, *(origin or (-1, -1)))
                + index)
        seg = self._segment(path, create=True)
        with seg.lock:
            base = seg.size + len(head)
            seg.fh.writelines((head, *(data for _, data in slices.values())))
            seg.fh.flush()
            seg.size = base + offset
        # the disk tier is the durability story recovery depends on: the
        # section is published, and ``map-done`` sent, only once durable
        os.fsync(seg.fh.fileno())
        seg.index[task_id] = (origin, {p: (base + at, length, count) for
                                       p, (at, length, count) in slots.items()})
        if self.memory is not None:
            for partition, (_, data) in slices.items():
                self.memory.put(f"{path}#{task_id}#{partition}", data)
        return {p: count for p, (count, _) in slices.items()}

    def write_map_output(self, job: int, task_id: int,
                         origin: Optional[tuple[int, int]],
                         slices: dict[int, list[Record]]) -> dict[int, int]:
        """:meth:`write_map_slices` of per-partition record lists."""
        return self.write_map_slices(job, task_id, origin, {
            p: (len(records), encode_records(records))
            for p, records in slices.items()})

    def write_piece(self, job: int, partition: int, split_index: int,
                    n_splits: int, records: list[Record]) -> int:
        self.write_piece_bytes(job, partition, split_index, n_splits,
                               encode_records(records))
        return len(records)

    def write_piece_bytes(self, job: int, partition: int, split_index: int,
                          n_splits: int, data: bytes) -> None:
        """Persist an already-encoded piece verbatim (replica writes: the
        bytes arrive over the shuffle transport from the primary holder
        and must land byte-identical, behind the same atomic rename)."""
        self._commit(self.piece_path(job, partition, split_index, n_splits),
                     data)

    # -- reads ----------------------------------------------------------
    def _read_through(self, key: str, load) -> bytes:
        """Serve ``key`` from the memory tier; a spilled (or never
        pinned) entry reloads from its file on access."""
        if self.memory is None:
            return load()
        data = self.memory.get(key)
        if data is None:
            data = load()
            self.memory.put(key, data)
        return data

    def read_map_slice(self, job: int, task_id: int, partition: int) -> bytes:
        """A mapper's slice for one partition (empty when the mapper
        produced no record for it, or has no live output here)."""
        path = self.map_segment_path(job)

        def load() -> bytes:
            seg = self._segments.get(str(path))
            if seg is None:
                # not open here (another store's, a dead incarnation's):
                # the disk is the truth
                with open(path, "rb") as fh:
                    return _read_slot(fh, _scan_segment(fh)[0], task_id,
                                      partition)
            with seg.lock:
                if seg.fh.closed:
                    raise KeyError(task_id)
                return _read_slot(seg.fh, seg.index, task_id, partition)

        try:
            return self._read_through(f"{path}#{task_id}#{partition}", load)
        except (FileNotFoundError, KeyError):
            return b""

    def read_piece(self, job: int, partition: int, split_index: int,
                   n_splits: int) -> bytes:
        path = self.piece_path(job, partition, split_index, n_splits)
        return self._read_through(str(path), path.read_bytes)

    # -- invalidation ---------------------------------------------------
    def drop_map_output(self, job: int, task_id: int) -> None:
        """Delete one persisted map output (the Fig. 5 guard): append
        its tombstone, which hides every earlier section of the task."""
        path = self.map_segment_path(job)
        if self.memory is not None:
            self.memory.invalidate_prefix(f"{path}#{task_id}#")
        seg = self._segment(path)
        if seg is not None and seg.index.pop(task_id, None):
            with seg.lock:
                seg.fh.write(_SECTION.pack(0, task_id))
                seg.fh.flush()
                seg.size += _SECTION.size

    def drop_piece(self, job: int, partition: int, split_index: int,
                   n_splits: int) -> int:
        """Delete one committed reduce piece (the losing speculative
        attempt's output — the winner's copy on another node is the one
        the registry references).  Returns the bytes freed; missing file
        (the loser never wrote, or was already swept) frees nothing."""
        path = self.piece_path(job, partition, split_index, n_splits)
        if self.memory is not None:
            self.memory.invalidate(str(path))
        return _unlink(path)

    def _rm_tree(self, directory: Path) -> int:
        """Delete a subtree bottom-up with real ``os.unlink``s; returns
        the bytes freed.  The memory tier drops the subtree's entries
        and its open segments close first, so a concurrent reader can
        never be served bytes whose backing files are gone."""
        prefix = f"{directory}{os.sep}"  # "job1/" is no prefix of "job10/"
        if self.memory is not None:
            self.memory.invalidate_prefix(prefix)
        self._close_segments(prefix)
        freed = 0
        for parent, _, files in os.walk(directory, topdown=False):
            for path in (os.path.join(parent, name) for name in files):
                freed += os.lstat(path).st_size
                os.unlink(path)
            os.rmdir(parent)
        return freed

    def drop_job(self, job: int) -> int:
        """Delete every file of one job — its map segment and reducer
        pieces (orphan sweep before an OPTIMISTIC rerun).  Returns the
        bytes freed."""
        return (self._drop_segment(job)
                + self._rm_tree(self.dir / "reduce" / f"job{job}"))

    def sweep_chain(self, keep_reduce_jobs: Iterable[int]) -> int:
        """Close-time hygiene for a finished chain's namespace: delete
        every map segment and every reduce job **not** in
        ``keep_reduce_jobs`` (the jobs the cross-run cache registered),
        then remove the namespace dir if nothing is left.  Returns the
        bytes freed."""
        if self.chain is None:
            raise ValueError("sweep_chain only applies to chain "
                             "namespaces")
        keep = set(keep_reduce_jobs)
        freed = self._rm_tree(self.dir / "map")
        for directory in sorted((self.dir / "reduce").glob("job*")):
            if directory.name[3:].isdigit() \
                    and int(directory.name[3:]) not in keep:
                freed += self._rm_tree(directory)
        for directory in (self.dir / "reduce", self.dir):
            try:
                directory.rmdir()
            except OSError:
                pass  # cached jobs keep it alive, or it never existed
        return freed

    def reclaim_job_sets(self, map_jobs: Iterable[int],
                         piece_jobs: Iterable[int]) -> int:
        """Hybrid reclamation (§IV-C): delete map outputs of the jobs
        in ``map_jobs`` and reducer pieces of the jobs in ``piece_jobs``
        — the shielded cut behind the anchor frontier, which on a DAG
        need not be a contiguous index range (the data behind an anchor
        sits safely in its replicated output).  Returns the bytes
        freed."""
        return (sum(self._drop_segment(job) for job in set(map_jobs))
                + sum(self._rm_tree(self.dir / "reduce" / f"job{job}")
                      for job in set(piece_jobs)))


# ------------------------------------------------------------------- registry
@dataclass(frozen=True)
class MapEntry:
    """Coordinator-side record of one persisted map output."""

    job: int
    task_id: int
    node: int
    origin: Optional[tuple[int, int]]
    counts: dict[int, int] = field(hash=False, default_factory=dict)


@dataclass(frozen=True)
class PieceEntry:
    """Coordinator-side record of one stored reducer piece.

    ``chain`` is the namespace the backing file lives in when it is
    *not* the owning chain's own — the cross-run cache adopts pieces in
    a donor chain's namespace.  ``None`` (the default, and the only
    value outside the cache path) means the owning chain's namespace.
    Replica copies are always written into the owning namespace, so a
    promotion after a death re-points to an own-namespace file."""

    job: int
    partition: int
    split_index: int
    n_splits: int
    node: int
    n_records: int
    chain: Optional[str] = None

    @property
    def signature(self) -> PieceSignature:
        return (self.split_index, self.n_splits)

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.job, self.partition, self.split_index, self.n_splits)


@dataclass(frozen=True)
class BlockSpec:
    """One map-task input block under the current upstream layout.

    ``source`` locates the bytes: ``("input", node, start, count)`` — a
    slice of the node's generated chain input — or
    ``("piece", job, partition, split_index, n_splits, node, start,
    count, chain)`` — a record range of a stored upstream piece, where
    the trailing ``chain`` names the namespace the piece lives in
    (``None`` = the task's own chain; a donor chain id for pieces the
    cross-run cache adopted)."""

    task_id: int
    node: int          # where the input bytes are stored (data-locality)
    source: tuple
    origin: Optional[tuple[int, int]]


class ClusterRegistry:
    """What every node persists, and what a death destroys.

    The multi-process mirror of :class:`LocalCluster`'s storage maps:
    ``map_outputs`` and ``pieces`` track committed on-disk outputs by
    owning node; :meth:`record_death` removes a dead node's entries and
    files the lost piece signatures as the damage inventory the recovery
    planner consumes.

    Replication (REPL-k baselines and hybrid anchors, §IV-C): every
    stored piece has a *holder set* — the nodes with a byte-identical
    copy on disk.  ``pieces`` keeps exactly one entry per signature (the
    primary, whose node serves reads); ``replicas`` tracks the full
    holder set.  A death removes the dead node from every holder set and
    **promotes** a surviving holder to primary instead of filing damage —
    only a piece whose last copy died becomes damage."""

    def __init__(self) -> None:
        #: (job, task_id) -> MapEntry
        self.map_outputs: dict[tuple[int, int], MapEntry] = {}
        #: job -> partition -> list[PieceEntry], sorted like the engine
        self.pieces: dict[int, dict[int, list[PieceEntry]]] = {}
        #: job -> partition -> lost piece signatures
        self.damage: dict[int, dict[int, list[PieceSignature]]] = {}
        #: piece key -> holder nodes (primary included)
        self.replicas: dict[tuple[int, int, int, int], set[int]] = {}
        #: job -> replication target its output must maintain (REPL-k:
        #: every committed job; HYBRID: the anchor jobs)
        self.replicated_jobs: dict[int, int] = {}

    # -- commits --------------------------------------------------------
    def add_map(self, entry: MapEntry) -> None:
        self.map_outputs[(entry.job, entry.task_id)] = entry

    def add_piece(self, entry: PieceEntry) -> None:
        bucket = self.pieces.setdefault(entry.job, {}).setdefault(
            entry.partition, [])
        for old in bucket:
            if old.signature == entry.signature:
                self.replicas.pop(old.key, None)
        bucket[:] = [p for p in bucket if p.signature != entry.signature]
        bucket.append(entry)
        bucket.sort(key=lambda p: (p.n_splits, p.split_index))
        self.replicas[entry.key] = {entry.node}

    def add_replica(self, job: int, partition: int, split_index: int,
                    n_splits: int, node: int) -> None:
        """Register one committed replica copy of a stored piece."""
        key = (job, partition, split_index, n_splits)
        if key not in self.replicas:
            raise KeyError(f"no primary piece for replica {key}")
        self.replicas[key].add(node)

    def holders(self, job: int, partition: int, split_index: int,
                n_splits: int) -> set[int]:
        return set(self.replicas.get(
            (job, partition, split_index, n_splits), ()))

    def mark_replicated(self, job: int, target: int) -> None:
        """Record that ``job``'s output must maintain ``target`` copies
        (re-replication restores the invariant after deaths)."""
        self.replicated_jobs[job] = target

    def under_replicated(self, n_alive: int) -> list[PieceEntry]:
        """Pieces of replication-tracked jobs holding fewer copies than
        their target (capped at the surviving-node count), ascending."""
        out: list[PieceEntry] = []
        for job in sorted(self.replicated_jobs):
            want = min(self.replicated_jobs[job], n_alive)
            for partition in sorted(self.pieces.get(job, {})):
                for entry in self.pieces[job][partition]:
                    if len(self.replicas.get(entry.key, ())) < want:
                        out.append(entry)
        return out

    def drop_map(self, job: int, task_id: int) -> Optional[MapEntry]:
        return self.map_outputs.pop((job, task_id), None)

    def drop_job(self, job: int) -> tuple[list[MapEntry],
                                          list[tuple[PieceEntry,
                                                     set[int]]]]:
        """Forget every output of one job (full re-execution recovery).

        Returns the dropped map entries and ``(piece, holder set)``
        pairs so the coordinator can sweep the backing files off the
        worker disks — dropping metadata alone leaks orphan files."""
        maps = []
        for key in [k for k in self.map_outputs if k[0] == job]:
            maps.append(self.map_outputs.pop(key))
        dropped_pieces = []
        for plist in self.pieces.pop(job, {}).values():
            for entry in plist:
                dropped_pieces.append(
                    (entry, self.replicas.pop(entry.key, {entry.node})))
        self.damage.pop(job, None)
        self.replicated_jobs.pop(job, None)
        return maps, dropped_pieces

    def reclaim_job_sets(self, map_jobs: Iterable[int],
                         piece_jobs: Iterable[int]) -> None:
        """Forget reclaimed outputs (hybrid §IV-C; the job sets are the
        shielded cut).  The files are deleted by the workers; the
        registry must forget them too or a later death would file damage
        pointing at unlinked paths."""
        map_set, piece_set = set(map_jobs), set(piece_jobs)
        for key in [k for k in self.map_outputs if k[0] in map_set]:
            del self.map_outputs[key]
        for job in [j for j in self.pieces if j in piece_set]:
            for plist in self.pieces.pop(job).values():
                for entry in plist:
                    self.replicas.pop(entry.key, None)
            self.damage.pop(job, None)
            self.replicated_jobs.pop(job, None)

    # -- failure --------------------------------------------------------
    def record_death(self, node: int,
                     completed_jobs: int | Iterable[int]) -> None:
        """Remove the dead node's outputs; file damage for committed jobs.

        A piece with surviving replica holders is *promoted* — its
        primary entry re-points to a surviving holder — and never becomes
        damage.  Losses in a not-yet-committed job are not damage either:
        the job will simply re-run its missing work.  Only last-copy
        losses in committed jobs get signatures filed for the planner;
        ``completed_jobs`` is the done set — an int is the classic chain
        prefix ``1..k``, an iterable the explicit (possibly non-prefix)
        DAG done set."""
        if isinstance(completed_jobs, int):
            done = set(range(1, completed_jobs + 1))
        else:
            done = set(completed_jobs)
        for key in [k for k, m in self.map_outputs.items()
                    if m.node == node]:
            del self.map_outputs[key]
        for job, partitions in self.pieces.items():
            for partition, plist in list(partitions.items()):
                if not any(p.node == node for p in plist):
                    continue
                kept: list[PieceEntry] = []
                for p in plist:
                    if p.node != node:
                        kept.append(p)
                        continue
                    survivors = self.replicas.get(p.key, set()) - {node}
                    if survivors:
                        self.replicas[p.key] = survivors
                        # replicas live in the owning chain's own
                        # namespace, so promotion clears any donor chain
                        kept.append(replace(p, node=min(survivors),
                                            chain=None))
                        continue
                    self.replicas.pop(p.key, None)
                    if job in done:
                        self.damage.setdefault(job, {}).setdefault(
                            partition, []).append(p.signature)
                partitions[partition] = kept
        for holders in self.replicas.values():
            holders.discard(node)

    def damaged_jobs(self) -> list[int]:
        return sorted(j for j, d in self.damage.items()
                      if any(d.values()))

    # -- queries --------------------------------------------------------
    def map_tasks_of(self, job: int) -> list[int]:
        return sorted(t for (j, t) in self.map_outputs if j == job)

    def covered(self, job: int, partition: int) -> bool:
        """Whether the stored pieces cover the partition exactly once."""
        plist = self.pieces.get(job, {}).get(partition, [])
        return abs(sum(1.0 / p.n_splits for p in plist) - 1.0) <= 1e-9

    def coverage_complete(self, job: int, n_partitions: int) -> bool:
        return all(self.covered(job, p) for p in range(n_partitions))

    def blocks_for(self, job: int, n_nodes: int, records_per_node: int,
                   records_per_block: int,
                   parents: Optional[tuple[int, ...]] = None
                   ) -> list[BlockSpec]:
        """The map-side input blocks of ``job`` under the current layout.

        ``parents`` is the job's upstream tuple from the dependency
        graph (``None`` = the linear chain: ``(job - 1,)``, or the
        computation input for job 1).  Must enumerate exactly like
        ``LocalCluster.input_blocks`` — same task ids, same record
        ranges, same empty-piece handling — or the two backends'
        recomputation would diverge."""
        if parents is None:
            parents = (job - 1,) if job > 1 else ()
        blocks: list[BlockSpec] = []
        if not parents:
            tid = 0
            for node in range(n_nodes):
                for start in range(0, records_per_node, records_per_block):
                    count = min(records_per_block, records_per_node - start)
                    blocks.append(BlockSpec(
                        tid, node, ("input", node, start, count), None))
                    tid += 1
            return blocks
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
                    for start in range(0, max(piece.n_records, 1),
                                       records_per_block):
                        count = min(records_per_block,
                                    max(piece.n_records - start, 0))
                        blocks.append(BlockSpec(
                            pos * PARENT_STRIDE + partition * STRIDE
                            + ordinal, piece.node,
                            ("piece", piece.job, piece.partition,
                             piece.split_index, piece.n_splits, piece.node,
                             start, count, piece.chain),
                            (parent, partition)))
                        ordinal += 1
        return blocks
