"""Record-level correctness of recomputation (the paper's semantics).

The key property: after any failure pattern recovered via RCMP-style
recomputation — with or without reducer splitting — the chain's final
output is byte-for-byte identical to the failure-free run.  Includes a
direct construction of the paper's Fig. 5 hazard showing that the guard
(invalidating map outputs whose input partition was split) is *necessary*.
"""

import hashlib

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
from repro.localexec import md5 as md5_mod
from repro.localexec import records as records_mod
from repro.localexec.md5 import (
    _CHUNK,
    TEXT_HEAD_MAX,
    md5_rows,
    md5_text,
)
from repro.localexec.records import (
    MD5_KERNEL_MIN_ROWS,
    Record,
    byte_sum,
    generate_batch,
    map_batch,
    partition_of,
    reduce_batch,
    split_of,
)
from repro.localexec.recovery import recompute_job
from repro.runtime.storage import FRAME_HEADER, decode_columns, encode_columns


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
                                                         7919, 2**63]))),
       rng=st.randoms(use_true_random=False))
def test_reduce_batch_is_reduce_udf_per_sorted_group(records, rng):
    groups = {}
    for r in records:
        groups.setdefault(r.key, []).append(r.value)
    keys, values = reduce_batch(*to_columns(records))
    assert values.shape == (len(groups), 14)
    assert to_records(keys, values) == \
        [reduce_udf(k, v) for k, v in sorted(groups.items())]
    # the key sort is not stable: the order values arrive in (and so
    # the order of equal keys after it) must not reach a byte
    shuffled = rng.sample(records, len(records))
    again = reduce_batch(*to_columns(shuffled))
    assert again[0].tobytes() == keys.tobytes()
    assert again[1].tobytes() == values.tobytes()


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


@pytest.mark.parametrize("n", [40, 2 * MD5_KERNEL_MIN_ROWS + 7])
@pytest.mark.parametrize("duplicates", ["none", "one", "every"])
def test_reduce_batch_sorts_and_joins_only_the_groups_of_several(
        n, duplicates):
    """One duplicate key (job 1's 32-bit input keys collide) must not
    send the whole partition down the per-group path: the groups of one
    are digested as the column they are — through the kernel, above the
    crossover — and the result is ``reduce_udf`` row for row either way,
    as it is when every key has several values (a DAG join)."""
    keys, values = map_batch(*generate_batch(n, seed=9, value_size=64), 1)
    if duplicates == "one":
        keys[n // 3] = keys[n - 2]
    elif duplicates == "every":
        keys, values = np.tile(keys, 2), np.concatenate([values[::-1], values])
    groups = {}
    for r in to_records(keys, values):
        groups.setdefault(r.key, []).append(r.value)
    assert len(groups) == {"none": n, "one": n - 1, "every": n}[duplicates]
    assert to_records(*reduce_batch(keys, values)) == \
        [reduce_udf(k, v) for k, v in sorted(groups.items())]


def test_one_duplicate_key_keeps_the_rest_of_a_partition_on_the_kernel(
        monkeypatch):
    n, digested = 2 * MD5_KERNEL_MIN_ROWS, []
    monkeypatch.setattr(records_mod, "md5_rows", lambda column, tick: (
        digested.append(len(column)), md5_rows(column))[1])
    keys, values = map_batch(*generate_batch(n, seed=4, value_size=16), 2)
    digested.clear()
    reduce_batch(keys, values)
    assert digested == [n]  # no key repeats: the partition is one column
    digested.clear()
    keys[5] = keys[77]
    reduce_batch(keys, values)
    assert digested == [n - 2]  # the pair alone took the hashlib loop


# ------------------------------------------- the MD5 kernel vs ``hashlib``
def hashlib_digests(blobs):
    return [hashlib.md5(blob).digest() for blob in blobs]


def digest_rows(digests):
    assert digests.dtype == np.uint8 and digests.shape[1:] == (16,)
    return [bytes(row) for row in digests]


def assert_md5_rows_is_hashlib(values):
    assert digest_rows(md5_rows(values)) == \
        hashlib_digests(bytes(row) for row in values)


def random_matrix(n, length, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, (n, length), dtype=np.uint8)


# 55/56, 119/120: the 0x80 marker + bit length stop fitting the block;
# 63/64: the message itself fills it
@pytest.mark.parametrize("length", [*range(0, 131)])
def test_md5_rows_is_hashlib_at_every_length(length):
    assert_md5_rows_is_hashlib(random_matrix(5, length, seed=length))


#: a second pass size for the pass-edge cases: the pass arithmetic must
#: hold at any size, not only the shipped ``_CHUNK``
OTHER_PASS = 8192


@pytest.mark.parametrize("length", [14, 55, 56, 63, 64, 119, 120])
@pytest.mark.parametrize("n", [0, 1, MD5_KERNEL_MIN_ROWS - 1,
                               MD5_KERNEL_MIN_ROWS, 4096,
                               2 * OTHER_PASS + 3, 2 * _CHUNK + 3])
def test_md5_rows_is_hashlib_at_every_batch_size(n, length):
    assert_md5_rows_is_hashlib(random_matrix(n, length, seed=n))


def test_md5_rows_takes_strided_and_read_only_views():
    base = random_matrix(300, 80)
    frozen = np.frombuffer(base.tobytes(), np.uint8).reshape(base.shape)
    assert not frozen.flags.writeable
    for view in (base[::3], base[:, 5:69], base[::-2, 1::2], base.T,
                 frozen, frozen[10:20, :14]):
        before = view.copy()
        assert_md5_rows_is_hashlib(view)
        assert (view == before).all()  # the input is only read


@settings(max_examples=40, deadline=None)
@given(n=st.integers(MD5_KERNEL_MIN_ROWS, MD5_KERNEL_MIN_ROWS + 64),
       length=st.integers(0, 130), seed=st.integers(0, 2**32 - 1))
def test_md5_rows_is_hashlib_on_random_columns(n, length, seed):
    assert_md5_rows_is_hashlib(random_matrix(n, length, seed))


EDGE_NUMBERS = [0, 1, 9, 10, 2**32 - 1, 2**64 - 1]


@pytest.mark.parametrize("prefix", range(1, 13))
def test_md5_text_is_hashlib_on_decimal_edges(prefix):
    numbers = np.array(EDGE_NUMBERS + [10**k for k in range(20)]
                       + [10**k - 1 for k in range(1, 20)], np.uint64)
    assert digest_rows(md5_text(b"%d:" % prefix, numbers)) == \
        hashlib_digests(b"%d:%d" % (prefix, number)
                        for number in numbers.tolist())


def assert_md5_text_is_hashlib(head, column):
    assert digest_rows(md5_text(head, column)) == \
        hashlib_digests(head + b"%d" % number for number in column.tolist())


def test_md5_text_is_hashlib_at_the_formatter_chunk_boundaries():
    """The decimal formatter splits a number at 10^16 and 10^8 into
    ``uint32`` chunks: both sides of each cut, alone and mixed with every
    digit count 1..20 in one column (so every left-justify group runs)."""
    cuts = [10**8 - 1, 10**8, 10**8 + 1, 10**16 - 1, 10**16, 10**16 + 1,
            2**32, 99_999_999_99_999_999, 2**64 - 1]
    lengths = [int("18446744073709551615"[:k]) for k in range(1, 21)]
    assert sorted(len(str(x)) for x in lengths) == list(range(1, 21))
    for numbers in (cuts, lengths, cuts + lengths):
        assert_md5_text_is_hashlib(b"7:", np.array(numbers, np.uint64))


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 1000, OTHER_PASS + 5,
                               _CHUNK + 5])
@pytest.mark.parametrize("start", [0, 27_000, 10**8 - 3, 10**16 - 3])
def test_md5_text_is_hashlib_on_arange_input(start, n):
    """What ``generate_batch`` sends: consecutive row numbers, whose text
    grows a digit mid-column; ``n = 0`` digests nothing."""
    assert_md5_text_is_hashlib(
        b"11003:", np.arange(start, start + n, dtype=np.uint64))


@settings(max_examples=60, deadline=None)
@given(numbers=st.lists(st.one_of(st.integers(0, 2**64 - 1),
                                  st.sampled_from(EDGE_NUMBERS)),
                        max_size=30),
       head=st.binary(max_size=35))
def test_md5_text_is_hashlib_on_random_columns(numbers, head):
    column = np.array(numbers, np.uint64)
    assert digest_rows(md5_text(head, column[::-1])) == \
        hashlib_digests(head + b"%d" % number for number in numbers[::-1])


@pytest.mark.parametrize("at", range(TEXT_HEAD_MAX + 1))
def test_md5_text_is_hashlib_at_every_head_length(at):
    """The head decides which message words are constants (the words it
    fills) and where in a word the digits start: every length, over the
    keys whose text changes length — 0, 10^k - 1, 10^k, 2^64 - 1."""
    numbers = np.array(EDGE_NUMBERS + [10**k for k in range(20)]
                       + [10**k - 1 for k in range(1, 20)], np.uint64)
    head = bytes(range(0x30, 0x30 + at))
    assert_md5_text_is_hashlib(head, numbers)
    # short texts only: the words behind the longest fold to constants
    assert_md5_text_is_hashlib(head, numbers[numbers < 1000])


def test_md5_text_is_hashlib_when_the_commonest_count_comes_last(
        monkeypatch):
    """A pass builds the texts whose marker falls into its commonest word
    over whole columns, then writes the other rows over them.  Rare rows
    — every digit count 1..20, 0, each 10^k - 1 and 10^k, 2^64 - 1 —
    shuffled, then a run of 19-digit ones with pass edges inside it, at
    every head length (every start of the digits in a word)."""
    rng = np.random.default_rng(33)
    rare = rng.permutation(np.array(
        [int("18446744073709551615"[:k]) for k in range(1, 21)]
        + [0, 2**64 - 1] + [10**k - 1 for k in range(1, 20)]
        + [10**k for k in range(1, 20)], np.uint64))
    numbers = np.concatenate(
        [rare, rng.integers(10**18, 10**19, 150, dtype=np.uint64)])
    monkeypatch.setattr(md5_mod, "_CHUNK", 64)  # three passes of 70 rows
    for at in range(TEXT_HEAD_MAX + 1):
        assert_md5_text_is_hashlib(bytes(range(0x41, 0x41 + at)), numbers)


# one row either side of a kernel pass, and of the row counts where the
# equal passes go from one to two and from two to three
@pytest.mark.parametrize("n, passes, chunk", [
    pytest.param(n, passes, chunk, id=f"{n}-{passes}")
    for chunk in (OTHER_PASS, _CHUNK)
    for n, passes in [(chunk - 1, 1), (chunk, 1), (chunk + 1, 1),
                      (chunk * 3 // 2 - 1, 1), (chunk * 3 // 2 + 1, 2),
                      (chunk * 5 // 2 + 1, 3)]])
def test_kernels_are_hashlib_at_the_pass_edges(monkeypatch, n, passes,
                                               chunk):
    """The kernel runs in equal passes of about ``_CHUNK`` rows — never a
    short remainder — and ticks before each."""
    monkeypatch.setattr(md5_mod, "_CHUNK", chunk)
    sizes, ticks = [], []
    monkeypatch.setattr(md5_mod, "_compress", lambda rows, words, real=md5_mod
                        ._compress: (sizes.append(rows), real(rows, words))[1])
    values = random_matrix(n, 14, seed=n)
    assert digest_rows(md5_rows(values, lambda: ticks.append(len(sizes)))) \
        == hashlib_digests(bytes(row) for row in values)
    assert ticks == list(range(passes))  # one tick ahead of every pass
    assert len(sizes) == passes and sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    assert_md5_rows_is_hashlib(random_matrix(n, 64, seed=n))
    for length in (16, 64):  # whole words, read from a strided view
        keys = np.arange(n, dtype=np.uint64)
        _, view = decode_columns(encode_columns(
            keys, random_matrix(n, length, seed=n)))
        assert view.strides == (FRAME_HEADER + length, 1)
        assert_md5_rows_is_hashlib(view)
    assert_md5_text_is_hashlib(b"2:", np.random.default_rng(n).integers(
        0, 2**64, n, dtype=np.uint64))


def test_a_raising_tick_abandons_the_batch():
    class Stop(Exception):
        pass

    def tick():
        raise Stop

    n = MD5_KERNEL_MIN_ROWS
    with pytest.raises(Stop):
        map_batch(*generate_batch(n, seed=1, value_size=16), 1, tick)
    # under the crossover nothing ticks: the ``hashlib`` loop is one piece
    map_batch(*generate_batch(n - 1, seed=1, value_size=16), 1, tick)


# ------------------------ batch UDFs on either side of the kernel crossover
def at_crossover(crossover, fn, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records_mod, "MD5_KERNEL_MIN_ROWS", crossover)
        return fn(*args)


# 0: every column, however small, goes through the kernel; 2**31: none does
CROSSOVERS = pytest.mark.parametrize("crossover", [0, 2**31])


@CROSSOVERS
@settings(max_examples=60, deadline=None)
@given(records=batch_strategy(), job=st.integers(0, 12))
def test_map_batch_is_map_udf_at_any_crossover(crossover, records, job):
    assert to_records(*at_crossover(
        crossover, map_batch, *to_columns(records), job)) == \
        [map_udf(r, job) for r in records]


@CROSSOVERS
@settings(max_examples=60, deadline=None)
@given(records=st.one_of(batch_strategy(),
                         batch_strategy(st.sampled_from([0, 3, 2**64 - 1]))))
def test_reduce_batch_is_reduce_udf_at_any_crossover(crossover, records):
    groups = {}
    for r in records:
        groups.setdefault(r.key, []).append(r.value)
    assert to_records(*at_crossover(
        crossover, reduce_batch, *to_columns(records))) == \
        [reduce_udf(k, v) for k, v in sorted(groups.items())]


@CROSSOVERS
@pytest.mark.parametrize("value_size", [0, 6, 16, 17, 64])
def test_generate_batch_is_generate_records_at_any_crossover(crossover,
                                                             value_size):
    for n, seed in ((0, 1), (37, 5003), (5, 10**40)):  # last: head > 35 B
        assert to_records(*at_crossover(
            crossover, generate_batch, n, seed, value_size)) == \
            generate_records(n, seed=seed, value_size=value_size)


@pytest.mark.parametrize("value_size", [16, 64])
def test_a_chain_job_above_the_crossover_is_the_per_record_job(
        monkeypatch, value_size):
    """Today's strategies draw batches of <= 20 rows, which never reach
    the kernel at the shipped crossover; this job does, at every digest —
    and the spies prove it."""
    calls = []
    for name in ("md5_rows", "md5_text"):
        def spy(*args, kernel=getattr(records_mod, name), name=name):
            calls.append(name)
            return kernel(*args)
        monkeypatch.setattr(records_mod, name, spy)
    n = 2 * MD5_KERNEL_MIN_ROWS + 7
    records = generate_records(n, seed=77, value_size=value_size)
    generated = generate_batch(n, seed=77, value_size=value_size)
    assert to_records(*generated) == records
    # rows 7.. of the same sequence, as a re-homed mapper regenerates them
    assert to_records(*generate_batch(
        n - 7, seed=77, value_size=value_size, start=7)) == records[7:]
    mapped = [map_udf(r, 1) for r in records]
    assert to_records(*map_batch(*generated, 1)) == mapped
    assert to_records(*reduce_batch(*map_batch(*generated, 1))) == \
        [reduce_udf(r.key, [r.value]) for r in sorted(mapped)]
    assert calls == ["md5_text"] * 2 + ["md5_text", "md5_rows"] * 2 \
        + ["md5_rows"]


def test_values_over_four_blocks_keep_the_hashlib_loop(monkeypatch):
    """The kernel's lead shrinks with every block and is a tie by the
    eighth (tools/md5_crossover.py), so 248-byte values never enter it —
    and 247-byte ones, four blocks, do from 4 000 rows."""
    calls = []
    monkeypatch.setattr(records_mod, "md5_rows", lambda column, tick: (
        calls.append(column.shape), md5_rows(column))[1])
    n = 4 * MD5_KERNEL_MIN_ROWS
    for value_size, entered in ((248, []), (247, [(n, 247)])):
        records = generate_records(n, seed=8, value_size=value_size)
        assert to_records(*map_batch(*to_columns(records), 1)) == \
            [map_udf(r, 1) for r in records]
        assert calls == entered


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
