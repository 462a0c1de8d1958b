#!/usr/bin/env python
"""Shuffle data-plane benchmarks: bytes shipped and wall-clock, A/B.

Two suites on the process backend, every run checksum-verified against
the failure-free in-process reference.  ``--suite`` selects one
(default: both).

**shuffle** (``benchmarks/BENCH_shuffle.json``):

* **split-filter**: a kill forces a 2-way split recomputation; the
  bytes its recompute-reduce phases pulled (TCP + local) are compared
  with the on-disk slices of the partitions they regenerated.  Each
  split reducer must receive only its share of the partition: about
  ``1/k`` of the ``k x`` partition bytes an unfiltered shuffle ships.

**memplane** (``benchmarks/BENCH_memplane.json``) — the memory-tier
data plane:

* **codec**: the vectorized preallocating ``encode_records`` against
  the per-record list + join it replaced (microbenchmark).
* **tier A/B**: the chain with the memory tier off (``memory_budget=0``
  — every read hits disk files) versus on, failure-free and through a
  kill; wall-clock is the metric.
* **colocation**: the same workload spread over 4 single-slot nodes
  versus packed onto 2 two-slot nodes; colocated slots resolve their
  own node's bytes in-process, so ``shuffle_bytes_tcp`` must drop and
  ``shuffle_bytes_local`` must rise.
* **matrix**: the differential checksum matrix — chain shapes x
  strategies x kill schedules, each under tier off / on / a
  deliberately tiny budget that spills constantly — every cell must
  reproduce the reference checksum byte-for-byte (``run_chain`` aborts
  on the first mismatch).

``--check`` re-runs at reduced scale and fails non-zero on any violated
claim — the CI smoke for the data plane's headline claims.

Usage::

    PYTHONPATH=src python benchmarks/run_shuffle_bench.py
    PYTHONPATH=src python benchmarks/run_shuffle_bench.py --check
    PYTHONPATH=src python benchmarks/run_shuffle_bench.py --suite memplane
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import time

from common import (
    add_check_and_out,
    codec_bench,
    finish,
    reference_checksum,
    write_payload,
)

from repro.faults import FaultModel
from repro.localexec import LocalJobConfig
from repro.runtime import Coordinator, RuntimeConfig
from repro.runtime.storage import NodeStore
from repro.workloads import cube_dependencies, shape_dependencies

#: wall-clock slack for the memory-tier on-vs-off comparison: on a
#: single-core host the slot threads only overlap I/O, so the win is
#: smaller and noisier (same convention as the 4-vs-1-node test)
WALL_MARGIN = 1.25 if (os.cpu_count() or 1) < 2 else 1.05
SPLIT_EPS = 0.25


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=("shuffle", "memplane", "all"),
                        default="all")
    parser.add_argument("--records", type=int, default=256,
                        help="chain input records per node")
    parser.add_argument("--value-size", type=int, default=64)
    parser.add_argument("--jobs", type=int, default=3)
    parser.add_argument("--partitions", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=5,
                        help="wall-clock runs per data plane (best-of)")
    parser.add_argument("--memplane-out", default=None,
                        help="memplane payload path (default: "
                             "benchmarks/BENCH_memplane.json)")
    add_check_and_out(parser, "BENCH_shuffle.json")
    return parser.parse_args()


def run_chain(chain: LocalJobConfig, expected: str, faults: str = "",
              n_nodes: int = 4, probe=None, **config_kwargs):
    """``probe(coord)`` runs after the chain, before the workers and the
    work directory are torn down."""
    config = RuntimeConfig(n_nodes=n_nodes, chain=chain, **config_kwargs)
    model = FaultModel.parse(faults) if faults else None
    with tempfile.TemporaryDirectory(prefix="rcmp-shuffle-") as workdir:
        t0 = time.perf_counter()
        with Coordinator(config, workdir, fault_model=model) as coord:
            report = coord.run_chain()
            if probe is not None:
                probe(coord)
        wall = time.perf_counter() - t0
    if report.checksum != expected:
        raise SystemExit(f"checksum mismatch under {config_kwargs}: "
                         f"{report.checksum} != {expected}")
    # report.wall_time sums the job phases — worker fork/startup (which
    # no data plane can touch) is excluded from the comparison
    return report, wall


def split_filter(chain: LocalJobConfig, expected: str) -> dict:
    """Kill node 1 after job 2 commits -> a split_ratio-way split
    recomputation; compare the bytes its recompute-reduce phases pulled
    with the stored slices of the partitions they regenerated (an
    unfiltered shuffle would pull ``k x`` those)."""
    k = chain.split_ratio
    stored = []

    def partition_bytes(coord: Coordinator) -> None:
        registry = coord.chain_run.registry
        stored.append(sum(
            len(NodeStore(coord.pool.workdir, entry.node).read_map_slice(
                job, entry.task_id, partition))
            for job, parts in registry.pieces.items()
            for partition, plist in parts.items()
            if any(e.n_splits == k for e in plist)
            for entry in registry.map_outputs.values()
            if entry.job == job))

    report, wall = run_chain(chain, expected, faults="kill@job2+0:node=1",
                             probe=partition_bytes)
    pulled = sum(n for ledger in (report.shuffle_bytes,
                                  report.shuffle_bytes_local)
                 for phase, n in ledger.items()
                 if phase.startswith("recompute-reduce"))
    return {
        "split_ratio": k,
        "recompute_reduce_bytes": pulled,
        "partition_bytes_on_disk": stored[0],
        "total_shuffle_bytes": report.total_shuffle_bytes,
        "wall_s": round(wall, 3),
        "bytes_ratio": round(pulled / max(1, k * stored[0]), 4),
    }


#: tier label -> memory budget handed to the runtime; "tiny" is small
#: enough that every commit evicts something (constant spilling)
TIERS = (("off", 0), ("on", 64 << 20), ("tiny", 4096))


def memory_tier_ab(chain: LocalJobConfig, expected: str, repeat: int,
                   faults: str = "") -> dict:
    """Memory tier off (every read opens the on-disk file) vs on, on
    the same chain.  The two arms interleave and the median wall is the
    statistic — fork/scheduling outliers swing single runs by more than
    the tier effect, so best-of would reward the luckiest run instead
    of the typical one."""
    walls: dict[str, list[float]] = {"file": [], "memory": []}
    reports: dict = {}
    for _ in range(repeat):
        for label, budget in (("file", 0), ("memory", 64 << 20)):
            report, _outer = run_chain(chain, expected, faults=faults,
                                       memory_budget=budget,
                                       task_slots=4)
            walls[label].append(report.wall_time)
            reports[label] = report
    result = {}
    for label, report in reports.items():
        result[label] = {
            "wall_s": round(statistics.median(walls[label]), 3),
            "walls_s": [round(w, 3) for w in walls[label]],
            "shuffle_bytes_tcp": report.total_shuffle_bytes_tcp,
            "shuffle_bytes_local": report.total_shuffle_bytes_local,
        }
    result["speedup"] = round(result["file"]["wall_s"]
                              / result["memory"]["wall_s"], 3)
    return result


def colocation_ab(jobs: int, partitions: int, records: int,
                  value_size: int) -> dict:
    """The same record volume spread over 4 single-slot nodes versus
    packed onto 2 two-slot nodes.  Colocated slots resolve their own
    node's slices and pieces in-process, so packing must shift shuffle
    bytes from the TCP counter to the local one."""
    result = {}
    for label, n_nodes, slots, per_node in (
            ("spread_4x1", 4, 1, records),
            ("packed_2x2", 2, 2, records * 2)):
        chain = LocalJobConfig(n_jobs=jobs, n_partitions=partitions,
                               records_per_node=per_node,
                               records_per_block=16,
                               value_size=value_size,
                               split_ratio=2, seed=0)
        expected = reference_checksum(chain, n_nodes)
        report, wall = run_chain(chain, expected, n_nodes=n_nodes,
                                 task_slots=slots)
        result[label] = {
            "nodes": n_nodes, "task_slots": slots,
            "shuffle_bytes_tcp": report.total_shuffle_bytes_tcp,
            "shuffle_bytes_local": report.total_shuffle_bytes_local,
            "wall_s": round(wall, 3),
        }
    return result


def tier_matrix(records: int, value_size: int, check: bool) -> dict:
    """The differential checksum matrix under the three tier settings.

    Every cell re-runs one (shape, strategy, kill schedule) combination
    with the tier off, on, and tiny-budget; ``run_chain`` aborts the
    bench on the first checksum that differs from the in-process
    reference, so a completed matrix IS the byte-identity proof."""
    base = dict(n_partitions=4, records_per_node=records,
                records_per_block=16, value_size=value_size,
                split_ratio=2, seed=0)
    shapes = {
        "linear": (LocalJobConfig(n_jobs=3, **base),
                   {"single": "kill@job2+0:node=1",
                    "double": "kill@job2+0:node=1; kill@job3+0:node=2"}),
        "diamond": (LocalJobConfig(
                        n_jobs=4,
                        dependencies=shape_dependencies("diamond"), **base),
                    {"single": "kill@job2+0:node=1",
                     "double": "kill@job2+0:node=1; kill@job4+0:node=2"}),
        "cube3": (LocalJobConfig(
                      n_jobs=8, dependencies=cube_dependencies(3), **base),
                  {"single": "kill@job5+0:node=1",
                   "double": "kill@job2+0:node=1; kill@job8+0:node=2"}),
    }
    if check:  # reduced CI slice; the full matrix runs in full mode
        shapes = {k: shapes[k] for k in ("linear", "diamond")}
        strategies = ("rcmp", "repl2")
        schedules = ("single",)
    else:
        strategies = ("rcmp", "optimistic", "repl2", "hybrid")
        schedules = ("none", "single", "double")
    cells = 0
    matrix: dict = {}
    for shape, (chain, kills) in shapes.items():
        expected = reference_checksum(chain)
        matrix[shape] = {}
        for strategy in strategies:
            row = {}
            for label in schedules:
                for tier, budget in TIERS:
                    run_chain(chain, expected, faults=kills.get(label, ""),
                              strategy=strategy, task_slots=2,
                              memory_budget=budget)
                    cells += 1
                row[label] = "byte-identical under " + "/".join(
                    t for t, _ in TIERS)
            matrix[shape][strategy] = row
        print(f"matrix: {shape} ok "
              f"({len(strategies) * len(schedules) * len(TIERS)} cells)")
    return {"cells": cells, "strategies": list(strategies),
            "schedules": list(schedules),
            "tiers": {t: b for t, b in TIERS}, "matrix": matrix}


def shuffle_suite(args, chain: LocalJobConfig, expected: str,
                  failures: list) -> None:
    split = split_filter(chain, expected)
    k = split["split_ratio"]
    print(f"split-filter: recompute reduces pulled "
          f"{split['recompute_reduce_bytes']}B of {k} x "
          f"{split['partition_bytes_on_disk']}B on disk "
          f"(ratio {split['bytes_ratio']}, target <= "
          f"{round((1 + SPLIT_EPS) / k, 3)})")

    payload = {
        "chain": {"jobs": args.jobs, "partitions": args.partitions,
                  "records_per_node": chain.records_per_node,
                  "value_size": chain.value_size,
                  "nodes": 4, "split_ratio": k},
        "check_mode": args.check,
        "cpu_count": os.cpu_count(),
        "split_filter": split,
    }
    write_payload(payload, "BENCH_shuffle.json", args.out)

    if split["bytes_ratio"] > (1 + SPLIT_EPS) / k:
        failures.append(
            f"split reducers pulled {split['bytes_ratio']} of the "
            f"k x partition bytes (allowed {(1 + SPLIT_EPS) / k:.3f})")


def memplane_suite(args, chain: LocalJobConfig, expected: str,
                   repeat: int, failures: list) -> None:
    codec = codec_bench()
    print(f"codec: packed {codec['packed_ms']}ms vs join "
          f"{codec['join_ms']}ms (speedup {codec['speedup']}x)")

    # the tier A/B runs a read-heavy shape (many small slices — the
    # workload where the disk tier pays per-file open/read syscalls the
    # RAM tier does not); check mode reuses the small shared chain
    if args.check:
        tier_chain, tier_expected = chain, expected
    else:
        tier_chain = LocalJobConfig(n_jobs=4, n_partitions=16,
                                    records_per_node=512,
                                    records_per_block=16, value_size=16,
                                    split_ratio=2, seed=0)
        tier_expected = reference_checksum(tier_chain)
    tier_clean = memory_tier_ab(tier_chain, tier_expected, repeat)
    print(f"memory tier (clean): file {tier_clean['file']['wall_s']}s vs "
          f"memory {tier_clean['memory']['wall_s']}s "
          f"(speedup {tier_clean['speedup']}x, margin {WALL_MARGIN})")
    tier_kill = memory_tier_ab(tier_chain, tier_expected, repeat,
                               faults="kill@job2+0:node=1")
    print(f"memory tier (kill):  file {tier_kill['file']['wall_s']}s vs "
          f"memory {tier_kill['memory']['wall_s']}s "
          f"(speedup {tier_kill['speedup']}x)")

    colo = colocation_ab(args.jobs, args.partitions,
                         chain.records_per_node, chain.value_size)
    spread, packed = colo["spread_4x1"], colo["packed_2x2"]
    print(f"colocation: spread tcp {spread['shuffle_bytes_tcp']}B / local "
          f"{spread['shuffle_bytes_local']}B vs packed tcp "
          f"{packed['shuffle_bytes_tcp']}B / local "
          f"{packed['shuffle_bytes_local']}B")

    # the matrix proves byte-identity, not speed — keep the cells small
    # so the 108-cell full sweep stays inside a CI-sized wall budget
    matrix = tier_matrix(96 if args.check else 128, 32, args.check)
    print(f"matrix: {matrix['cells']} cells, all byte-identical")

    payload = {
        "chain": {"jobs": args.jobs, "partitions": args.partitions,
                  "records_per_node": chain.records_per_node,
                  "value_size": chain.value_size, "nodes": 4},
        "check_mode": args.check,
        "cpu_count": os.cpu_count(),
        "codec": codec,
        "memory_tier": {
            "chain": {"jobs": tier_chain.n_jobs,
                      "partitions": tier_chain.n_partitions,
                      "records_per_node": tier_chain.records_per_node,
                      "value_size": tier_chain.value_size, "nodes": 4},
            "clean": tier_clean, "kill": tier_kill},
        "colocation": colo,
        "matrix": matrix,
    }
    write_payload(payload, "BENCH_memplane.json", args.memplane_out)

    if codec["speedup"] < 1.0:
        failures.append(
            f"preallocating codec slower than the join it replaced "
            f"({codec['speedup']}x)")
    if packed["shuffle_bytes_tcp"] >= spread["shuffle_bytes_tcp"]:
        failures.append(
            f"colocated slots did not lower TCP shuffle bytes "
            f"({packed['shuffle_bytes_tcp']}B >= "
            f"{spread['shuffle_bytes_tcp']}B)")
    if packed["shuffle_bytes_local"] <= spread["shuffle_bytes_local"]:
        failures.append(
            f"colocated slots did not raise local shuffle bytes "
            f"({packed['shuffle_bytes_local']}B <= "
            f"{spread['shuffle_bytes_local']}B)")
    best_tier = max(tier_clean["speedup"], tier_kill["speedup"])
    if args.check and best_tier * WALL_MARGIN < 1.0:
        failures.append(
            f"memory tier too slow: best speedup {best_tier}x "
            f"(clean {tier_clean['speedup']}x, kill "
            f"{tier_kill['speedup']}x, margin {WALL_MARGIN})")


def main() -> int:
    args = parse_args()
    records = 96 if args.check else args.records
    value_size = 32 if args.check else args.value_size
    repeat = 2 if args.check else args.repeat
    chain = LocalJobConfig(n_jobs=args.jobs,
                           n_partitions=args.partitions,
                           records_per_node=records,
                           records_per_block=16,
                           value_size=value_size,
                           split_ratio=2, seed=0)
    expected = reference_checksum(chain)

    failures: list[str] = []
    if args.suite in ("shuffle", "all"):
        shuffle_suite(args, chain, expected, failures)
    if args.suite in ("memplane", "all"):
        memplane_suite(args, chain, expected, repeat, failures)
    return finish(failures)


if __name__ == "__main__":
    raise SystemExit(main())
