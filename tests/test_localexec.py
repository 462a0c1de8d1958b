"""Record-level correctness of recomputation (the paper's semantics).

The key property: after any failure pattern recovered via RCMP-style
recomputation — with or without reducer splitting — the chain's final
output is byte-for-byte identical to the failure-free run.  Includes a
direct construction of the paper's Fig. 5 hazard showing that the guard
(invalidating map outputs whose input partition was split) is *necessary*.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.localexec import (
    LocalCluster,
    LocalJobConfig,
    generate_records,
    map_udf,
    recover_and_finish,
    reduce_udf,
)
from repro.localexec.records import (
    Record,
    byte_sum,
    generate_batch,
    map_batch,
    partition_of,
    reduce_batch,
    split_of,
)
from repro.localexec.recovery import recompute_job


def reference_output(config, n_nodes=4):
    cluster = LocalCluster(n_nodes, config)
    cluster.run_chain()
    return cluster.final_output()


# ----------------------------------------------------------------- records
def test_generate_records_deterministic():
    a = generate_records(10, seed=3)
    b = generate_records(10, seed=3)
    c = generate_records(10, seed=4)
    assert a == b
    assert a != c


def test_record_is_immutable_ordered_and_hashable():
    """The contract the frozen, ordered dataclass gave and the native
    tuple keeps: field access, no mutation, ``(key, value)`` ordering,
    value equality and a hash consistent with it."""
    rec = Record(7, b"v")
    assert (rec.key, rec.value) == (7, b"v")
    assert rec == Record(key=7, value=b"v") and rec != Record(7, b"w")
    with pytest.raises(AttributeError):
        rec.key = 8
    with pytest.raises(AttributeError):
        rec.extra = 1  # no instance dict to grow either
    assert Record(1, b"z") < Record(2, b"a") < Record(2, b"b")
    shuffled = [Record(3, b"a"), Record(1, b"b"), Record(2, b""),
                Record(1, b"a")]
    assert sorted(shuffled) == [Record(1, b"a"), Record(1, b"b"),
                                Record(2, b""), Record(3, b"a")]
    assert hash(rec) == hash(Record(7, b"v"))
    assert len({rec, Record(7, b"v"), Record(7, b"w")}) == 2


def test_map_udf_deterministic_and_key_randomizing():
    rec = Record(42, b"0123456789abcdef")
    out1 = map_udf(rec, job_index=2)
    out2 = map_udf(rec, job_index=2)
    assert out1 == out2
    assert map_udf(rec, job_index=3).key != out1.key  # per-job randomization
    # value embeds the byte-sum check
    checksum = int.from_bytes(out1.value[8:10], "big")
    assert checksum == byte_sum(rec.value) & 0xFFFF


def test_reduce_udf_order_independent():
    values = [b"aaa", b"bbb", b"ccc"]
    assert reduce_udf(7, values) == reduce_udf(7, list(reversed(values)))


# ------------------------------------------------ batch UDFs vs the oracle
def to_columns(records):
    """Records as the ``(keys, values)`` columns the batch UDFs take: an
    ``n x L`` matrix when every value is ``L`` bytes, an object column
    when they are ragged."""
    keys = np.array([r.key for r in records], dtype=np.uint64)
    lengths = {len(r.value) for r in records}
    if len(lengths) > 1:
        return keys, np.array([r.value for r in records], dtype=object)
    return keys, np.frombuffer(
        b"".join(r.value for r in records), np.uint8).reshape(
            len(records), lengths.pop() if lengths else 0)


def to_records(keys, values):
    assert keys.dtype == np.uint64 and len(keys) == len(values)
    return [Record(key, bytes(value))
            for key, value in zip(keys.tolist(), values)]


def batch_strategy(keys=st.integers(0, 2**64 - 1)):
    uniform = st.sampled_from([0, 1, 5, 6, 64]).flatmap(
        lambda size: st.lists(st.builds(
            Record, keys, st.binary(min_size=size, max_size=size)),
            max_size=20))
    ragged = st.lists(st.builds(Record, keys, st.binary(max_size=9)),
                      max_size=20)
    return st.one_of(uniform, ragged)


@settings(max_examples=200, deadline=None)
@given(records=batch_strategy(), job=st.integers(0, 12))
def test_map_batch_is_map_udf_row_by_row(records, job):
    assert to_records(*map_batch(*to_columns(records), job)) == \
        [map_udf(r, job) for r in records]


# few distinct keys: every batch has groups of 2-5 values, in any order
@settings(max_examples=200, deadline=None)
@given(records=st.one_of(batch_strategy(),
                         batch_strategy(st.sampled_from([0, 3, 2**64 - 1,
                                                         7919, 2**63]))))
def test_reduce_batch_is_reduce_udf_per_sorted_group(records):
    groups = {}
    for r in records:
        groups.setdefault(r.key, []).append(r.value)
    keys, values = reduce_batch(*to_columns(records))
    assert values.shape == (len(groups), 14)
    assert to_records(keys, values) == \
        [reduce_udf(k, v) for k, v in sorted(groups.items())]


@pytest.mark.parametrize("value_size", [0, 1, 5, 6, 16, 17, 64])
def test_generate_batch_is_generate_records(value_size):
    for n in (0, 1, 37):
        keys, values = generate_batch(n, seed=5003, value_size=value_size)
        assert values.shape == (n, value_size)
        assert to_records(keys, values) == \
            generate_records(n, seed=5003, value_size=value_size)


def test_batch_udfs_compose_like_a_chain_job():
    """One job the way a worker runs it — on views of a larger input, as
    a block is — equals the per-record job."""
    records = generate_records(200, seed=9, value_size=64)
    keys, values = generate_batch(200, seed=9, value_size=64)
    mapped = map_batch(keys[50:150], values[50:150], 2)
    assert to_records(*mapped) == [map_udf(r, 2) for r in records[50:150]]
    groups = {}
    for r in to_records(*mapped) * 3:  # every key three times over
        groups.setdefault(r.key, []).append(r.value)
    tripled = (np.tile(mapped[0], 3), np.tile(mapped[1], (3, 1)))
    assert to_records(*reduce_batch(*tripled)) == \
        [reduce_udf(k, v) for k, v in sorted(groups.items())]


# ------------------------------------------------------------- partitioning
def test_partitioner_and_split_hash_cover_everything():
    keys = [r.key for r in generate_records(200, seed=1)]
    partitions = {partition_of(k, 4) for k in keys}
    splits = {split_of(k, 3) for k in keys}
    assert partitions == {0, 1, 2, 3}
    assert splits == {0, 1, 2}


# ------------------------------------------------------------- happy path
def test_chain_runs_and_produces_all_partitions():
    config = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=32)
    cluster = LocalCluster(4, config)
    cluster.run_chain()
    output = cluster.final_output()
    assert sorted(output) == [0, 1, 2, 3]
    assert sum(len(v) for v in output.values()) > 0
    for job in range(1, 4):
        assert cluster.partition_coverage_ok(job)


def test_failure_free_runs_identical():
    config = LocalJobConfig(n_jobs=3, seed=5)
    assert reference_output(config) == reference_output(config)


# ------------------------------------------------ recomputation correctness
@pytest.mark.parametrize("split_ratio", [1, 2, 3])
@pytest.mark.parametrize("fail_after_job", [1, 2])
def test_recovery_reproduces_exact_output(split_ratio, fail_after_job):
    config = LocalJobConfig(n_jobs=3, n_partitions=4, records_per_node=48,
                            split_ratio=split_ratio, seed=9)
    expected = reference_output(config)

    cluster = LocalCluster(4, config)
    for job in range(1, fail_after_job + 1):
        cluster.run_job(job)
    cluster.kill(1)
    recover_and_finish(cluster)
    assert cluster.final_output() == expected
    for job in range(1, config.n_jobs + 1):
        assert cluster.partition_coverage_ok(job)


def test_double_failure_recovery_exact():
    config = LocalJobConfig(n_jobs=4, n_partitions=4, records_per_node=32,
                            split_ratio=2, seed=2)
    expected = reference_output(config, n_nodes=5)
    cluster = LocalCluster(5, config)
    cluster.run_job(1)
    cluster.run_job(2)
    cluster.kill(0)
    recover_and_finish(cluster)
    # run_chain finished; now lose another node including recomputed data
    cluster2 = LocalCluster(5, config)
    cluster2.run_job(1)
    cluster2.run_job(2)
    cluster2.kill(0)
    # nested: second failure before recovery of the first
    cluster2.kill(2)
    recover_and_finish(cluster2)
    assert cluster.final_output() == expected
    assert cluster2.final_output() == expected


def test_recomputed_split_pieces_spread_over_nodes():
    config = LocalJobConfig(n_jobs=2, n_partitions=2, records_per_node=32,
                            split_ratio=3, seed=1)
    cluster = LocalCluster(4, config)
    cluster.run_job(1)
    victim = cluster.pieces[1][0][0].node
    cluster.kill(victim)
    recompute_job(cluster, 1)
    pieces = cluster.pieces[1][0]
    assert len(pieces) == 3
    assert len({p.node for p in pieces}) == 3
    assert cluster.partition_coverage_ok(1)


# ------------------------------------------------------------- Fig. 5 rule
def fig5_setup():
    """Partition 0 of job 1 stored on node 0; one of its job-2 consumer
    mappers runs non-locally on node 3 so its output survives node 0's
    death — exactly the paper's Fig. 5 configuration."""
    config = LocalJobConfig(n_jobs=2, n_partitions=2, records_per_node=48,
                            records_per_block=8, split_ratio=2, seed=13)

    moved = {}

    def assignment(job, task_id, storage_node):
        if job == 2 and storage_node == 0 and not moved.get("done"):
            moved["done"] = True
            return 3
        return storage_node

    cluster = LocalCluster(4, config, map_assignment=assignment)
    return cluster


def test_fig5_guard_gives_correct_output():
    expected = reference_output(
        LocalJobConfig(n_jobs=2, n_partitions=2, records_per_node=48,
                       records_per_block=8, split_ratio=2, seed=13))
    cluster = fig5_setup()
    cluster.run_job(1)
    cluster.run_job(2)
    # sanity: some job-2 map output derived from node 0's data is non-local
    survivors = [m for m in cluster.map_outputs.values()
                 if m.job == 2 and m.node == 3]
    assert survivors
    cluster.kill(0)
    recover_and_finish(cluster, fig5_guard=True)
    assert cluster.final_output() == expected


def test_fig5_hazard_without_guard_corrupts_output():
    """Reusing a surviving map output whose input partition was split
    regenerates some keys twice and loses others (paper Fig. 5)."""
    expected = reference_output(
        LocalJobConfig(n_jobs=2, n_partitions=2, records_per_node=48,
                       records_per_block=8, split_ratio=2, seed=13))
    cluster = fig5_setup()
    cluster.run_job(1)
    cluster.run_job(2)
    # the hazard requires a surviving consumer whose siblings re-run
    assert any(m.job == 2 and m.node == 3
               for m in cluster.map_outputs.values())
    cluster.kill(0)
    recover_and_finish(cluster, fig5_guard=False)
    assert cluster.final_output() != expected


# -------------------------------------------------------------- properties
@settings(max_examples=20, deadline=None)
@given(
    n_nodes=st.integers(min_value=2, max_value=6),
    n_partitions=st.integers(min_value=1, max_value=6),
    split_ratio=st.integers(min_value=1, max_value=4),
    victim_seed=st.integers(min_value=0, max_value=10_000),
    fail_after=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_recovery_always_exact(n_nodes, n_partitions, split_ratio,
                                        victim_seed, fail_after, seed):
    """For arbitrary cluster/partition/split shapes and any victim node,
    recovery reproduces the failure-free output exactly."""
    config = LocalJobConfig(n_jobs=3, n_partitions=n_partitions,
                            records_per_node=24, records_per_block=8,
                            split_ratio=split_ratio, seed=seed)
    expected = reference_output(config, n_nodes=n_nodes)
    cluster = LocalCluster(n_nodes, config)
    fail_after = min(fail_after, config.n_jobs)
    for job in range(1, fail_after + 1):
        cluster.run_job(job)
    victim = victim_seed % n_nodes
    cluster.kill(victim)
    recover_and_finish(cluster)
    assert cluster.final_output() == expected


@settings(max_examples=15, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=2**31), min_size=1,
                  max_size=50),
    n_splits=st.integers(min_value=1, max_value=8),
)
def test_property_splits_partition_keys_exactly_once(keys, n_splits):
    """Splitting is a partition of the key set: every key to exactly one
    split (the correctness basis of §IV-B1)."""
    for key in keys:
        owners = [s for s in range(n_splits)
                  if split_of(key, n_splits) == s]
        assert len(owners) == 1
