"""What the spine measures: workloads, metric names, units, bounds.

Everything declarative lives here so the runner, the test and
``BENCHMARK.json`` cannot drift apart: ``benchmark_json()`` *is* the
committed file (``run.py --write-benchmark-json`` regenerates it, the
test asserts equality).  Importing this module pulls nothing from
``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

N_NODES = 4  # a kill must leave >= 3 survivors for the auto split k=2

#: seconds one contract run measures (BENCHMARK.json ``run_seconds``).
#: The driver allows 92 runs 3420 s in all; with warm-up, set-up samples
#: and the reference run a 20 s window costs 26-34 s per run even when a
#: neighbour has the host at its slowest.
RUN_SECONDS = 20

KILL = "kill@job3+0:node=1"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "chain" = one Coordinator per repeat; "service" = closed loop of
    #: client threads against one resident ChainService
    kind: str
    strategy: str = "rcmp"
    faults: Optional[str] = None
    n_jobs: int = 3
    n_partitions: int = 8
    records_per_node: int = 30_000
    records_per_block: int = 3_000
    value_size: int = 64
    #: service only
    clients: int = 2
    max_concurrent: int = 2

    @property
    def visits(self) -> int:
        """Record-visits of one chain (every record passes every job)."""
        return self.records_per_node * N_NODES * self.n_jobs


_SMALL = dict(kind="service", n_jobs=4, n_partitions=4, records_per_node=256,
              records_per_block=64, value_size=16)

WORKLOADS = (
    Workload("chain-clean", "rcmp 3 jobs x 8 parts x 30k rec/node, no fault: "
             "360k record-visits per chain put UDFs, codec, group/sort and "
             "commit in charge; recovery, replication, dispatch idle",
             kind="chain"),
    Workload("chain-kill", "same chain + kill@job3+0:node=1, auto split: only "
             "workload running detection, record_death, planner, 2-way "
             "split with server-side filtering, Fig. 5 invalidation",
             faults=KILL, kind="chain"),
    Workload("repl2-kill", "same chain and kill under repl2: whole-piece "
             "fetch_piece copies + extra fsync'd writes when failure-free, "
             "promotion + re-replication on the kill; the paper's baseline",
             strategy="repl2", faults=KILL, kind="chain"),
    Workload("service-small", "resident ChainService, 2 closed-loop clients, "
             "4 jobs x 4 parts x 256 rec/node chains: dispatch, 20 ms pump "
             "tick, admission, open/close/sweep, fsync dominate; data "
             "plane bypassed", **_SMALL),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def smoke(workload: Workload) -> Workload:
    """The CI-sized variant: same shape, 256 records/node."""
    if workload.kind == "service":
        return workload
    return replace(workload, records_per_node=256, records_per_block=64)


def at_scale(workload: Workload, scale: str) -> Workload:
    return smoke(workload) if scale == "smoke" else workload


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "lower" | "higher"
    #: share of the parent's median the metric may worsen by (end-to-end
    #: metrics in BENCHMARK.json only)
    bound: Optional[float] = None
    #: workload names the metric is defined on; () = all
    only: tuple[str, ...] = ()

    def applies(self, workload: str) -> bool:
        return not self.only or workload in self.only


_KILLS = ("chain-kill", "repl2-kill")
_SVC = ("service-small",)

#: Every end-to-end metric the suite prints.  The ones with a bound are
#: defined (and never 0) on all four workloads and form BENCHMARK.json's
#: ``end_to_end``; the rest exist on some workloads only, which the
#: driver contract cannot express, so they are printed by the suite,
#: compared by ``--aa`` against AA_BOUND, and mirrored per layer.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("chain_wall_s", "s", "lower", 0.25),
    Metric("chain_wall_p90_s", "s", "lower", 0.25),
    Metric("records_per_s", "1/s", "higher", 0.25),
    Metric("cpu_s_per_mrec", "s", "lower", 0.25),
    Metric("worker_peak_rss_mb", "MB", "lower", 0.10),
    Metric("chains_per_s", "1/s", "higher", only=_SVC),
    Metric("recovery_s", "s", "lower", only=_KILLS),
    Metric("recovery_job_equiv", "job", "lower", only=_KILLS),
    Metric("failed_fraction", "ratio", "lower"),
)

#: --aa bound for end-to-end metrics BENCHMARK.json cannot carry
AA_BOUND = 0.25

CONTRACT_END_TO_END = tuple(m for m in END_TO_END if m.bound is not None)

REPLAY = (
    Metric("records.generate_us_per_rec", "us/rec", "lower"),
    Metric("records.map_udf_us_per_rec", "us/rec", "lower"),
    Metric("records.reduce_udf_us_per_rec", "us/rec", "lower"),
    Metric("worker.partition_us_per_rec", "us/rec", "lower"),
    Metric("worker.group_sort_us_per_rec", "us/rec", "lower"),
    Metric("storage.encode_mb_per_s", "MB/s", "higher"),
    Metric("storage.decode_us_per_rec", "us/rec", "lower"),
    Metric("storage.filter_split_mb_per_s", "MB/s", "higher"),
    Metric("storage.write_map_output_ms", "ms", "lower"),
    Metric("storage.write_piece_ms", "ms", "lower"),
    Metric("storage.read_piece_hot_mb_per_s", "MB/s", "higher"),
    Metric("storage.read_piece_cold_mb_per_s", "MB/s", "higher"),
    Metric("storage.chain_checksum_us_per_rec", "us/rec", "lower"),
    Metric("storage.record_death_ms", "ms", "lower"),
    Metric("transport.fetch_tcp_mb_per_s", "MB/s", "higher"),
    Metric("transport.fetch_rtt_us", "us", "lower"),
    Metric("transport.fetch_split_mb_per_s", "MB/s", "higher"),
    Metric("transport.fetch_piece_mb_per_s", "MB/s", "higher"),
    Metric("transport.serve_local_mb_per_s", "MB/s", "higher"),
    Metric("recovery.plan_us", "us", "lower"),
    Metric("coordinator.pool_start_ms", "ms", "lower"),
    Metric("coordinator.pool_shutdown_ms", "ms", "lower"),
    Metric("coordinator.dispatch_rtt_ms", "ms", "lower"),
)

#: the layers of one traced chain that sum to its wall by construction
WALL_LAYERS = (
    "coordinator.map_phase_s",
    "coordinator.reduce_phase_s",
    "coordinator.replicate_phase_s",
    "coordinator.recompute_phase_s",
    "coordinator.recovery_plan_s",
    "coordinator.final_checksum_s",
    "coordinator.gap_s",
)

TRACED = (
    *(Metric(name, "s", "lower") for name in WALL_LAYERS),
    Metric("coordinator.traced_chain_wall_s", "s", "lower"),
    Metric("coordinator.tracing_overhead_frac", "ratio", "lower"),
    Metric("coordinator.recovery_s", "s", "lower"),
    Metric("coordinator.recovery_job_equiv", "job", "lower"),
    Metric("faults.detect_s", "s", "lower"),
    Metric("worker.map_task_ms_p50", "ms", "lower"),
    Metric("worker.reduce_task_ms_p50", "ms", "lower"),
    Metric("worker.replicate_task_ms_p50", "ms", "lower"),
    Metric("worker.tasks_run", "count", "lower"),
    Metric("worker.recomputed_task_frac", "ratio", "lower"),
    Metric("transport.shuffle_bytes_tcp", "B", "lower"),
    Metric("transport.shuffle_bytes_local", "B", "lower"),
    Metric("storage.files_per_chain", "count", "lower"),
    Metric("service.admit_wait_ms_p50", "ms", "lower"),
    Metric("service.run_ms_p50", "ms", "lower"),
    Metric("service.running_peak", "count", "higher"),
)

PER_LAYER = REPLAY + TRACED


def benchmark_json() -> dict:
    """The builder contract's ``BENCHMARK.json``, from the tables above."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in CONTRACT_END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
