"""Records and the paper's UDFs (§V-A).

The paper's custom chain job performs, for every record, two computations
used to check correctness: one based on the MD5 hash of the record's value,
the other on the sum of all bytes in the value.  Each mapper additionally
randomizes the record key to keep data balanced across tasks.  We implement
exactly that: the mapper rewrites the key as an MD5-derived integer (a
deterministic function of job index and old key, so re-executions are
reproducible) and folds both checks into the value; the reducer combines all
values of a key, again mixing in the MD5 and byte-sum checks.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, NamedTuple


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
