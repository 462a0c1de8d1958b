"""Records and the paper's UDFs (§V-A).

The paper's custom chain job performs, for every record, two computations
used to check correctness: one based on the MD5 hash of the record's value,
the other on the sum of all bytes in the value.  Each mapper additionally
randomizes the record key to keep data balanced across tasks.  We implement
exactly that: the mapper rewrites the key as an MD5-derived integer (a
deterministic function of job index and old key, so re-executions are
reproducible) and folds both checks into the value; the reducer combines all
values of a key, again mixing in the MD5 and byte-sum checks.

Two implementations sharing no code: the per-record functions are the
definition, and what ``LocalCluster`` — the reference every checksum is
compared against — runs; the ``*_batch`` functions compute the same
bytes on columns for the process runtime's workers: ``keys: uint64[n]``
plus an ``n x L`` ``uint8`` value matrix (the UDFs keep a stage's values
one size: input ``value_size`` -> map ``10 + min(6, L)`` -> reduce 14)
or, for ragged values, a 1-D object array of ``bytes`` (correct, not
fast).  MD5 has a batch form too — :mod:`repro.localexec.md5` digests
a whole column in one vectorised pass — which wins once a batch is large
enough to amortise its ~600 numpy calls per 64-byte block;
:func:`_digests` sends columns of at least :data:`MD5_KERNEL_MIN_ROWS`
rows per block there (messages of up to four blocks) and keeps one
``hashlib`` call per record for the rest.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.localexec.md5 import TEXT_HEAD_MAX, md5_rows, md5_text, n_blocks

#: Rows per 64-byte message block from which the batch kernel beats the
#: ``hashlib`` loop: 1 000 for one-block messages, 2 000 for two-block
#: ones (job 1's 64-byte values), and so on — ``hashlib``'s cost is mostly
#: its per-call constructor and grows ~0.1 us a block, while the kernel's
#: grows by a whole block's steps.  For the same reason the kernel's lead
#: shrinks with every further block and is a tie by the eighth, so
#: messages of more than four blocks (values over 247 bytes) always take
#: the loop.  Measured, not tuned per run: ``tools/md5_crossover.py``
#: prints the table in docs/architecture.md §7.
MD5_KERNEL_MIN_ROWS = 1000
MD5_KERNEL_MAX_BLOCKS = 4


class Record(NamedTuple):
    """An immutable key-value record: a native tuple, so construction,
    ``(key, value)`` ordering, equality and hashing all run at C speed —
    every record of every job is built and sorted at least once."""

    key: int
    value: bytes


def _md5_int(data: bytes) -> int:
    return int.from_bytes(hashlib.md5(data).digest()[:8], "big")


def byte_sum(value: bytes) -> int:
    """The paper's second correctness check: sum of all value bytes."""
    return sum(value)


def generate_records(n: int, seed: int, value_size: int = 16) -> list[Record]:
    """Deterministic synthetic input: ``n`` records with pseudo-random keys
    and values (the paper uses randomly generated binary input data)."""
    out = []
    for i in range(n):
        material = hashlib.md5(f"{seed}:{i}".encode()).digest()
        key = int.from_bytes(material[:4], "big")
        value = (material * ((value_size // len(material)) + 1))[:value_size]
        out.append(Record(key, value))
    return out


def map_udf(record: Record, job_index: int) -> Record:
    """The chain mapper: randomize the key, fold both checks into the value.

    Key randomization is a deterministic MD5 of (job, old key) — random
    enough to balance partitions, reproducible across re-executions (a
    requirement for recomputation to regenerate identical data).
    """
    new_key = _md5_int(f"{job_index}:{record.key}".encode())
    digest = hashlib.md5(record.value).digest()[:8]
    checksum = byte_sum(record.value) & 0xFFFF
    new_value = digest + checksum.to_bytes(2, "big") + record.value[:6]
    return Record(new_key, new_value)


def reduce_udf(key: int, values: Iterable[bytes]) -> Record:
    """The chain reducer: combine all values of one key.

    Deterministic in the multiset of values (sorted before hashing), so the
    output is independent of shuffle arrival order — which is what makes
    "same computation on the same input" recomputation exact (§VI)."""
    blob = b"".join(sorted(values))
    digest = hashlib.md5(blob).digest()[:8]
    checksum = byte_sum(blob) & 0xFFFF
    return Record(key, digest + checksum.to_bytes(2, "big") +
                  len(blob).to_bytes(4, "big"))


def partition_of(key: int, n_partitions: int) -> int:
    """Hash partitioner (Hadoop's default key routing)."""
    return key % n_partitions


def split_of(key: int, n_splits: int) -> int:
    """Secondary hash used by reducer splitting: divides the keys of one
    partition among the splits (paper §IV-B1, Fig. 5 uses odd/even —
    i.e. exactly this modulo hash with k=2)."""
    return (key // 7919) % n_splits  # independent of partition_of


# ------------------------------------------------------------- column batches
def _be_column(raw: np.ndarray) -> np.ndarray:
    """An ``n x w`` matrix of big-endian integers as ``uint64[n]``."""
    return np.ascontiguousarray(raw).view(
        f">u{raw.shape[1]}").ravel().astype(np.uint64)


def _be_bytes(column, width: int) -> np.ndarray:
    """The inverse: an integer column as ``n x width`` big-endian bytes
    (values wrap modulo ``256 ** width``)."""
    return np.asarray(column).astype(f">u{width}").view(
        np.uint8).reshape(-1, width)


def _rows(values: np.ndarray) -> list[bytes]:
    """One ``bytes`` per row of a value column."""
    if values.ndim == 1:
        return values.tolist()
    if not values.shape[1]:
        return [b""] * len(values)
    return np.ascontiguousarray(values).view(
        f"V{values.shape[1]}").ravel().tolist()


def _kernel_pays(rows: int, blocks: int = 1) -> bool:
    """Whether ``rows`` messages of ``blocks`` 64-byte blocks each are
    digested faster by the batch kernel than by the ``hashlib`` loop."""
    return (blocks <= MD5_KERNEL_MAX_BLOCKS
            and rows >= MD5_KERNEL_MIN_ROWS * blocks)


def _digests(column, head: Optional[bytes] = None, tick=None) -> np.ndarray:
    """MD5 of every message of a column as an ``n x 16`` byte matrix.

    The messages are the rows of a value matrix, the blobs of a list or
    ragged column, or — given ``head`` — the texts ``head + b"%d" %
    number`` of a ``uint64`` column.  The kernel calls ``tick`` before
    each of its passes."""
    if head is not None:
        if _kernel_pays(len(column)) and len(head) <= TEXT_HEAD_MAX:
            return md5_text(head, column, tick)
        column = [head + b"%d" % number for number in column.tolist()]
    elif isinstance(column, np.ndarray) and column.ndim == 2:
        if _kernel_pays(len(column), n_blocks(column.shape[1])):
            return md5_rows(column, tick)
        column = _rows(column)
    md5 = hashlib.md5
    return np.frombuffer(b"".join([md5(blob).digest() for blob in column]),
                         np.uint8).reshape(-1, 16)


def generate_batch(n: int, seed: int, value_size: int = 16, start: int = 0
                   ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`generate_records` as ``(keys, values)`` columns; ``start``
    yields rows ``start..start + n`` of the same sequence."""
    material = _digests(np.arange(start, start + n, dtype=np.uint64),
                        head=b"%d:" % seed)
    return (_be_column(material[:, :4]),
            np.tile(material, (1, value_size // 16 + 1))[:, :value_size])


def map_batch(keys: np.ndarray, values: np.ndarray, job_index: int,
              tick=None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`map_udf` over a column batch, row for row.  ``tick``, if
    given, is called before every pass of the MD5 kernel (about every
    8 192 rows of either digest) and may raise to abandon the batch."""
    new_keys = _be_column(
        _digests(keys, b"%d:" % job_index, tick)[:, :8])
    if values.ndim == 1:  # ragged
        rows = values.tolist()
        return new_keys, np.array(
            [digest.tobytes() + (sum(row) & 0xFFFF).to_bytes(2, "big")
             + row[:6] for digest, row in zip(_digests(rows)[:, :8], rows)],
            dtype=object)
    out = np.empty((len(values), 10 + min(6, values.shape[1])), np.uint8)
    out[:, :8] = _digests(values, tick=tick)[:, :8]
    out[:, 8:10] = _be_bytes(values.sum(axis=1, dtype=np.uint64), 2)
    out[:, 10:] = values[:, :6]
    return new_keys, out


def reduce_batch(keys: np.ndarray, values: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reduce_udf` over every key group of a column batch, in
    ascending key order (what ``sorted(groups.items())`` yields)."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)  # marks the first row of a group
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, len(keys)))
    values = values[order]

    def group_blobs(values, starts, sizes) -> list[bytes]:  # sort + join
        rows = _rows(values)
        return [b"".join(sorted(rows[start:start + size]))
                for start, size in zip(starts.tolist(), sizes.tolist())]

    if values.ndim == 1:  # ragged
        blobs = group_blobs(values, starts, sizes)
        digests = _digests(blobs)
        sums, lengths = list(map(sum, blobs)), list(map(len, blobs))
    else:
        # one value per key — every chain job from the second on, and all
        # but a few keys of the first — is its blob as it stands: only
        # the groups of several (DAG joins, key collisions) sort + join
        several = sizes > 1
        digests = np.empty((len(starts), 16), np.uint8)
        digests[~several] = _digests(values[starts[~several]])
        if several.any():
            ends = np.cumsum(sizes[several])
            digests[several] = _digests(group_blobs(
                values[np.repeat(several, sizes)], ends - sizes[several],
                sizes[several]))
        sums = np.add.reduceat(values.sum(axis=1, dtype=np.uint64), starts)
        lengths = sizes * values.shape[1]
    out = np.empty((len(starts), 14), np.uint8)
    out[:, :8] = digests[:, :8]
    out[:, 8:10] = _be_bytes(sums, 2)
    out[:, 10:] = _be_bytes(lengths, 4)
    return keys[starts], out
