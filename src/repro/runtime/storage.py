"""Node-local persisted outputs and the coordinator's damage inventory.

On-disk layout (``repro.dfs``-compatible: one directory per node, every
stored object single-replica, exactly what a collocated compute/storage
node loses when it dies)::

    <root>/node03/map/job2.seg       one job's map outputs on this node
    <root>/node03/reduce/job1.seg    one job's reduce pieces and replicas

Both are append-only segments of one format: a task commits by appending
one section to a kept-open handle (no file created, renamed or unlinked
per task), and a run of map tasks makes its sections durable with one
fsync.  A section is a header, then Hadoop's shape, a partition
index in front of the slices (one fsync commits all of a section's
slices or none)::

    u64 bytes of body | i64 key | body: u32 bytes of slots | i64 key,
    origin job, origin partition (-1 = none) | per slice: u32 partition,
    u64 offset past the index, u64 length, u32 record count | the
    encoded slices, concatenated

A map output's key is its task id and it has a slice per partition; a
piece's key packs ``(partition, split index, split count)``
(:func:`piece_key`) and it is one slice with no origin.  A key's later
section wins; a bodiless one is a dropped output's tombstone.  The disk
is the truth and an open segment's index a cache of it:
:func:`scan_segment` rebuilds it from the headers alone.

Records are framed binary — 8-byte big-endian key, 4-byte length, value —
so a partition's bytes are a pure function of its record multiset and the
final-output checksum is comparable byte-for-byte across backends
(:func:`chain_checksum` is the single definition both the in-process and
the multi-process backend report).  The paper's UDFs keep every value of
a stage the same size, so a stored slice or piece *is* an ``n x (12 + L)``
byte matrix — row = key (8) | L (4) | value (L) — and the workers never
leave that shape: :func:`decode_columns` reshapes it into ``keys:
uint64[n]`` plus the ``n x L`` value matrix without copying a value,
:func:`encode_columns` is the inverse, :func:`filter_split_spans` routes
by one mask over the key column, and :func:`partition_run` a run of map
tasks' output by one stable sort of the (task, partition) routes and one
encode, whose byte ranges are the slices.  Bytes that are no such matrix
(ragged values, a torn frame) take the frame walk, with the same
truncation errors.

A section is written by append + ``fsync`` (one for a run of sections)
and only then published in the index, so a ``SIGKILL`` mid-write can
never surface torn bytes as a committed output — half a section is a
torn tail every scan ignores and the segment's next writer truncates —
and the coordinator only learns about an output from the worker's commit
message, which is sent after the data is durable.  A store or process
that does not write a segment (the coordinator's checksum, the cache,
another chain's namespace) reads it by a read-only scan, never by
opening it for appending.

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
#: segment section: header (body bytes that follow, key), index head
#: (slot bytes that follow, key, origin job, origin partition), then one
#: slot (partition, offset, length, record count) per slice
_SECTION = struct.Struct(">Qq")
_INDEX_HEAD = struct.Struct(">Iqqq")
_INDEX_SLOT = struct.Struct(">IQQI")
_PIECE_KEY = struct.Struct(">IHH")


def piece_key(partition: int, split_index: int, n_splits: int) -> int:
    """A reduce piece's section key: its signature packed in one i64."""
    return int.from_bytes(_PIECE_KEY.pack(partition, split_index, n_splits),
                          "big")


# --------------------------------------------------------------- record codec
def _frame_dtype(length: int) -> np.dtype:
    """One frame of an ``length``-byte value as a numpy record."""
    return np.dtype([("key", ">u8"), ("length", ">u4"),
                     ("value", np.uint8, (length,))])


#: rows a reordering encode gathers at a time: it never holds a
#: reordered copy of a whole column
_GATHER = 16_384


def _frames(keys: np.ndarray, values: np.ndarray,
            order: Optional[np.ndarray] = None) -> np.ndarray:
    """An ``n x L`` value matrix's frames as ``n`` fixed-size rows: keys,
    the constant length field and the values each land with a vectorized
    column write into one preallocated buffer — rows in ``order`` when
    given, gathered ``_GATHER`` at a time."""
    out = np.empty(len(keys), _frame_dtype(values.shape[1]))
    out["length"] = values.shape[1]
    if order is None:
        out["key"], out["value"] = keys, values
        return out
    for lo in range(0, len(order), _GATHER):
        rows = order[lo:lo + _GATHER]
        out["key"][lo:lo + _GATHER] = keys[rows]
        out["value"][lo:lo + _GATHER] = values[rows]
    return out


def encode_columns(keys: np.ndarray, values: np.ndarray) -> bytes:
    """Frame a column batch: an ``n x L`` value matrix as :func:`_frames`'
    fixed-size rows, a ragged (object) value column by the per-record
    loop."""
    if values.ndim == 1:
        return b"".join([_KEY.pack(key, len(value)) + value
                         for key, value in zip(keys.tolist(), values)])
    return _frames(keys, values).tobytes()


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


def partition_run(keys: np.ndarray, values: np.ndarray, n_partitions: int,
                  sizes: list[int]) -> list[dict[int, tuple[int, memoryview]]]:
    """Route a run's column batch — consecutive tasks of ``sizes`` rows
    each — by task and ``partition_of``: per task, partition -> (record
    count, encoded slice), ascending, batch order kept within a slice.

    One stable sort of the (task, partition) routes — in the smallest
    unsigned dtype, which numpy radix-sorts — and one encode of the
    reordered batch: each slice is a zero-copy byte range of that one
    encoding, which lives as long as a slice does."""
    n_routes = len(sizes) * n_partitions
    dtype = np.min_scalar_type(n_routes - 1)
    routes = partition_of(keys, n_partitions).astype(dtype)
    if len(sizes) > 1:  # task i's routes start at i * n_partitions
        routes += np.repeat(np.arange(0, n_routes, n_partitions,
                                      dtype=dtype), sizes)
    order = np.argsort(routes, kind="stable")
    # bincount, not np.unique: unique's first call imports numpy.ma —
    # 12-15 ms of CPU in every freshly forked worker
    counts = np.bincount(routes, minlength=n_routes)
    if values.ndim == 2:
        frames = _frames(keys, values, order)
        data = memoryview(frames.view(np.uint8))
        ends = np.cumsum(counts) * frames.itemsize
    else:  # ragged: each frame as long as its value
        values = values[order]
        data = memoryview(encode_columns(keys[order], values))
        ends = np.cumsum([0] + [FRAME_HEADER + len(value)
                                for value in values])[np.cumsum(counts)]
    bounds = [0, *ends.tolist()]
    out: list[dict] = [{} for _ in sizes]
    for route in np.flatnonzero(counts).tolist():
        task, partition = divmod(route, n_partitions)
        out[task][partition] = (int(counts[route]),
                                data[bounds[route]:bounds[route + 1]])
    return out


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

    Keys are ``<segment path>#<section key>#<partition>``, which makes
    one tier shareable across a worker's chain-namespaced
    :class:`NodeStore` views and lets a tombstone or a segment's unlink
    evict by prefix.  Thread-safe: task-slot threads commit and read
    while shuffle-server threads serve."""

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
    """Walk an open segment's section headers: ``({key: (origin,
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


def scan_segment(path: str | Path) -> dict:
    """The live sections of a segment file, from its headers alone:
    ``{key: (origin, {partition: (file offset, length, count)})}``."""
    with open(path, "rb") as fh:
        return _scan_segment(fh)[0]


def _read_slot(fh, index: dict, key: int, partition: int) -> bytes:
    """One slice of a segment: ``KeyError`` when ``key`` has no live
    section, never a short read."""
    offset, length, _ = index[key][1].get(partition, (0, 0, 0))
    data = os.pread(fh.fileno(), length, offset)
    if len(data) != length:
        raise ValueError(f"truncated map output: {fh.name}")
    return data


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

    def append(self, key: int, origin: Optional[tuple[int, int]],
               slices: dict[int, tuple[int, bytes]]) -> tuple:
        """Write one section — ``key``'s slices, partition -> ``(record
        count, bytes)`` — at the end, neither synced nor published;
        returns its index entry."""
        slots, offset = {}, 0
        for partition, (count, data) in slices.items():
            slots[partition] = (offset, len(data), count)
            offset += len(data)
        index = b"".join(_INDEX_SLOT.pack(p, *slot)
                         for p, slot in slots.items())
        head = (_SECTION.pack(_INDEX_HEAD.size + len(index) + offset, key)
                + _INDEX_HEAD.pack(len(index), key, *(origin or (-1, -1)))
                + index)
        with self.lock:
            base = self.size + len(head)
            self.fh.writelines((head, *(data for _, data in slices.values())))
            self.fh.flush()
            self.size = base + offset
        return origin, {p: (base + at, length, count)
                        for p, (at, length, count) in slots.items()}


class NodeStore:
    """One node's single-replica on-disk storage.

    ``chain`` namespaces the layout for the multi-tenant chain service:
    ``chain=None`` keeps the classic single-chain layout
    (``<root>/nodeNNN/...``) byte-for-byte, while a chain id moves every
    file under ``<root>/nodeNNN/chains/<chain>/...`` so concurrent
    chains sharing one worker pool can never collide on a
    ``(job, task)`` or ``(job, partition, split)`` section.

    A store is the one writer of its node's segments; the ones it has
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

    def reduce_segment_path(self, job: int) -> Path:
        return self.dir / "reduce" / f"job{job}.seg"

    # -- segments -------------------------------------------------------
    def _segment(self, path: Path, create: bool = False
                 ) -> Optional[_Segment]:
        """The segment at ``path``, opened for appending on first use
        (``None`` when there is no such file and ``create`` is not set).
        Only the segment's writer opens it: opening truncates what looks
        like a torn tail, so a reader goes through :meth:`_load`."""
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

    def _drop_segment(self, path: Path) -> int:
        """Evict, close and unlink one segment; the bytes freed (0 when
        there was none)."""
        if self.memory is not None:
            self.memory.invalidate_prefix(f"{path}#")
        self._close_segments(str(path))
        try:
            freed = path.stat().st_size
            path.unlink()
        except FileNotFoundError:
            return 0
        return freed

    def _append(self, path: Path, sections: Iterable[tuple]) -> list[int]:
        """Append a run of sections — ``(key, origin, slices)``, slices
        partition -> ``(record count, bytes)`` — to the segment at
        ``path``, each written as ``sections`` yields it (so a caller's
        generator can re-check a condition right before each), then make
        them all durable with one fsync, publish them in the index and pin
        each slice hot under ``<segment>#<key>#<partition>``.  Whatever
        was appended is synced and published even if drawing the next
        section raises, so the index never lags the disk.  Returns the
        keys appended, in order."""
        seg, appended = None, []
        try:
            for key, origin, slices in sections:
                # opened on the first section: a run that appends nothing
                # (every task cancelled) creates no segment
                seg = seg or self._segment(path, create=True)
                appended.append((key, seg.append(key, origin, slices),
                                 slices))
        finally:
            if appended:
                # the disk tier is the durability story recovery depends
                # on: a section is published, and its ``map-done`` /
                # ``reduce-done`` / ``replica-done`` sent, only once durable
                os.fsync(seg.fh.fileno())
            for key, entry, slices in appended:
                seg.index[key] = entry
                if self.memory is not None:
                    # a slice may be a view of its run's one buffer
                    # (:func:`partition_run`): the tier pins a copy, so
                    # the buffer goes with the run (``bytes`` of bytes
                    # is the object itself)
                    for partition, (_, data) in slices.items():
                        self.memory.put(f"{path}#{key}#{partition}",
                                        bytes(data))
        return [key for key, _, _ in appended]

    def _load(self, path: Path, key: int, partition: int) -> bytes:
        """One slice of ``key``'s live section: the memory tier, the open
        segment, else a read-only scan.  ``KeyError`` when ``key`` has no
        live section, ``FileNotFoundError`` when there is no segment."""
        def load() -> bytes:
            seg = self._segments.get(str(path))
            if seg is None:
                with open(path, "rb") as fh:
                    return _read_slot(fh, _scan_segment(fh)[0], key,
                                      partition)
            with seg.lock:
                if seg.fh.closed:
                    raise KeyError(key)
                return _read_slot(seg.fh, seg.index, key, partition)

        if self.memory is None:
            return load()
        pinned = f"{path}#{key}#{partition}"
        data = self.memory.get(pinned)
        if data is None:  # spilled, or never pinned: reload on access
            data = load()
            self.memory.put(pinned, data)
        return data

    def _tombstone(self, path: Path, key: int) -> int:
        """Hide ``key``'s live section behind a bodiless one; returns the
        bytes it hid (0, and no tombstone, when nothing was live)."""
        if self.memory is not None:
            self.memory.invalidate_prefix(f"{path}#{key}#")
        seg = self._segment(path)
        if seg is None:
            return 0
        with seg.lock:
            live = seg.index.pop(key, None)
            if live is None:
                return 0
            seg.fh.write(_SECTION.pack(0, key))
            seg.fh.flush()
            seg.size += _SECTION.size
        return sum(length for _, length, _ in live[1].values())

    # -- writes ---------------------------------------------------------
    def write_map_run(self, job: int, sections: Iterable[tuple]
                      ) -> list[int]:
        """Persist a run of mappers' encoded per-partition shuffle slices
        — ``(task id, origin, {partition: (record count, bytes)})`` each
        — as sections of the job's map segment, committed by one fsync;
        returns the task ids committed (:meth:`_append`)."""
        return self._append(self.map_segment_path(job), sections)

    def write_map_output(self, job: int, task_id: int,
                         origin: Optional[tuple[int, int]],
                         slices: dict[int, list[Record]]) -> dict[int, int]:
        """Persist one mapper's per-partition record lists as a run of
        one; returns the per-partition record counts."""
        encoded = {p: (len(records), encode_records(records))
                   for p, records in slices.items()}
        self.write_map_run(job, [(task_id, origin, encoded)])
        return {p: count for p, (count, _) in encoded.items()}

    def write_piece(self, job: int, partition: int, split_index: int,
                    n_splits: int, records: list[Record]) -> int:
        self.write_piece_bytes(job, partition, split_index, n_splits,
                               encode_records(records))
        return len(records)

    def write_piece_bytes(self, job: int, partition: int, split_index: int,
                          n_splits: int, data: bytes) -> None:
        """Persist an encoded piece verbatim — a reducer's output, or a
        replica whose bytes arrive from the primary holder and must land
        byte-identical — as one section of the job's reduce segment."""
        rows = _frame_rows(data)
        count = len(rows) if rows is not None \
            else sum(1 for _ in iter_record_frames(data))
        self._append(self.reduce_segment_path(job), [(
            piece_key(partition, split_index, n_splits), None,
            {partition: (count, data)})])

    # -- reads ----------------------------------------------------------
    def read_map_slice(self, job: int, task_id: int, partition: int) -> bytes:
        """A mapper's slice for one partition (empty when the mapper
        produced no record for it, or has no live output here)."""
        try:
            return self._load(self.map_segment_path(job), task_id, partition)
        except (FileNotFoundError, KeyError):
            return b""

    def read_piece(self, job: int, partition: int, split_index: int,
                   n_splits: int) -> bytes:
        """One stored piece; ``FileNotFoundError`` when it has no live
        section here (never written, dropped, or swept)."""
        try:
            return self._load(self.reduce_segment_path(job),
                              piece_key(partition, split_index, n_splits),
                              partition)
        except KeyError:
            raise FileNotFoundError(
                f"no piece {(job, partition, split_index, n_splits)} "
                f"in {self.dir}") from None

    # -- invalidation ---------------------------------------------------
    def drop_map_output(self, job: int, task_id: int) -> None:
        """Delete one persisted map output (the Fig. 5 guard): append
        its tombstone, which hides every earlier section of the task."""
        self._tombstone(self.map_segment_path(job), task_id)

    def drop_piece(self, job: int, partition: int, split_index: int,
                   n_splits: int) -> int:
        """Delete one committed reduce piece (the losing speculative
        attempt's output — the winner's copy on another node is the one
        the registry references) by its tombstone.  Returns the bytes
        it hid; a piece never written, or already swept, hides nothing."""
        return self._tombstone(self.reduce_segment_path(job),
                               piece_key(partition, split_index, n_splits))

    def drop_job(self, job: int) -> int:
        """Delete one job's two segments, its map outputs and its reducer
        pieces (orphan sweep before an OPTIMISTIC rerun).  Returns the
        bytes freed."""
        return (self._drop_segment(self.map_segment_path(job))
                + self._drop_segment(self.reduce_segment_path(job)))

    def sweep_chain(self, keep_reduce_jobs: Iterable[int]) -> int:
        """Close-time hygiene for a finished chain's namespace: close its
        segments, delete every map segment and the reduce segment of
        every job **not** in ``keep_reduce_jobs`` (the jobs the cross-run
        cache registered), then remove the namespace dir if nothing is
        left.  Returns the bytes freed."""
        if self.chain is None:
            raise ValueError("sweep_chain only applies to chain "
                             "namespaces")
        self.close()
        keep = {f"job{job}" for job in keep_reduce_jobs}
        freed = sum(self._drop_segment(path) for path in (
            *self.dir.glob("map/job*.seg"),
            *(path for path in self.dir.glob("reduce/job*.seg")
              if path.stem not in keep)))
        for directory in (self.dir / "map", self.dir / "reduce", self.dir):
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
        return (sum(self._drop_segment(self.map_segment_path(job))
                    for job in set(map_jobs))
                + sum(self._drop_segment(self.reduce_segment_path(job))
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
    def record_death(self, node: int, done_jobs: Iterable[int]) -> None:
        """Remove the dead node's outputs; file damage for committed jobs.

        A piece with surviving replica holders is *promoted* — its
        primary entry re-points to a surviving holder — and never becomes
        damage.  Losses in a not-yet-committed job are not damage either:
        the job will simply re-run its missing work.  Only last-copy
        losses in the committed jobs ``done_jobs`` (any subset of the
        graph, not only a chain prefix) get signatures filed for the
        planner."""
        done = set(done_jobs)
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
