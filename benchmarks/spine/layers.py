"""Per-layer metrics: a single-threaded replay of each layer's public
functions, and the decomposition of one traced chain.

Layer = module name (``records``, ``worker``, ``storage``, ``transport``,
``recovery``, ``coordinator``, ``faults``, ``service``).  The replay calls
each layer directly on one node's share of the workload's generated
input; the traced run records spans from the benchmark's side only (the
program's own ``tracer=`` and ``hooks=`` arguments) — spans inside the
workers are ROADMAP item 1.
"""

from __future__ import annotations

import bisect
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

from repro.localexec.records import (
    generate_records,
    map_udf,
    partition_of,
    reduce_udf,
)
from repro.runtime import RuntimeConfig, WorkerPool, chain_checksum
from repro.runtime.recovery import plan_job_recovery
from repro.runtime.storage import (
    ClusterRegistry,
    MapEntry,
    MemoryTier,
    NodeStore,
    PieceEntry,
    encode_records,
    filter_split,
    iter_records,
)
from repro.runtime.transport import PeerPool, ShuffleServer, serve_request

from endtoend import Repeat, Window, chain_config
from spec import N_NODES, PER_LAYER, WALL_LAYERS, Workload

MB = 1e6
VICTIM = 1  # the node every kill workload loses


def median3(measure: Callable[[], float]) -> float:
    """Median of three calls of ``measure``, which returns seconds."""
    return statistics.median(measure() for _ in range(3))


def _timed(fn: Callable, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


# ------------------------------------------------------------------- replay
def replay(workload: Workload, seed: int, work_root: Path
           ) -> tuple[dict[str, float], dict[str, float]]:
    """Time every layer's public functions on one node's share of the
    workload's input.  Returns ``(metrics, aux)``; ``aux`` carries the
    frame sizes the CPU prediction needs."""
    root = Path(tempfile.mkdtemp(prefix="replay-", dir=work_root))
    try:
        return _replay(workload, seed, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _replay(workload: Workload, seed: int, root: Path
            ) -> tuple[dict[str, float], dict[str, float]]:
    n = workload.records_per_node
    n_parts = workload.n_partitions
    block = workload.records_per_block
    out: dict[str, float] = {}

    # -- records + worker: the per-record Python of one map and one reduce
    def generate() -> list:
        return generate_records(n, seed * 1000, workload.value_size)

    out["records.generate_us_per_rec"] = median3(
        lambda: _timed(generate)) / n * MB
    records = generate()
    out["records.map_udf_us_per_rec"] = median3(lambda: _timed(
        lambda: [map_udf(r, 1) for r in records])) / n * MB
    mapped = [map_udf(r, 1) for r in records]

    def partition(batch: list) -> dict:
        slices: dict = {}
        for rec in batch:
            slices.setdefault(partition_of(rec.key, n_parts), []).append(rec)
        return slices

    out["worker.partition_us_per_rec"] = median3(
        lambda: _timed(partition, mapped)) / n * MB

    def group_sort() -> list:
        groups: dict = {}
        for rec in mapped:
            groups.setdefault(rec.key, []).append(rec.value)
        return sorted(groups.items())

    out["worker.group_sort_us_per_rec"] = median3(
        lambda: _timed(group_sort)) / n * MB
    grouped = group_sort()
    out["records.reduce_udf_us_per_rec"] = median3(lambda: _timed(
        lambda: [reduce_udf(k, v) for k, v in grouped])) / n * MB
    reduced = [reduce_udf(k, v) for k, v in grouped]

    # -- storage: codec, fsync'd commits, both read tiers, checksum
    encoded = encode_records(mapped)
    out["storage.encode_mb_per_s"] = len(encoded) / MB / median3(
        lambda: _timed(encode_records, mapped))
    out["storage.decode_us_per_rec"] = median3(lambda: _timed(
        lambda: list(iter_records(encoded)))) / n * MB
    out["storage.filter_split_mb_per_s"] = len(encoded) / MB / median3(
        lambda: _timed(filter_split, encoded, 0, 2))
    store = NodeStore(root, 0, memory=MemoryTier(64 << 20))
    blocks = [partition(mapped[i:i + block]) for i in range(0, n, block)]
    # one node's whole map output of a job: every block is a sample, and
    # the shuffle server below serves exactly these files
    out["storage.write_map_output_ms"] = 1e3 * statistics.median(
        _timed(store.write_map_output, 1, task, None, slices)
        for task, slices in enumerate(blocks))
    tasks = list(range(len(blocks)))
    out["storage.write_piece_ms"] = 1e3 * median3(
        lambda: _timed(store.write_piece, 1, 0, 0, 1, reduced))
    piece_bytes = len(store.read_piece(1, 0, 0, 1))

    def read_mb_per_s(reader: NodeStore, reads: int) -> float:
        return reads * piece_bytes / MB / median3(lambda: _timed(
            lambda: [reader.read_piece(1, 0, 0, 1) for _ in range(reads)]))

    out["storage.read_piece_hot_mb_per_s"] = read_mb_per_s(store, 1000)
    # no memory tier: every read goes back to the (page-cached) file
    out["storage.read_piece_cold_mb_per_s"] = read_mb_per_s(
        NodeStore(root, 0), 20)
    out["storage.chain_checksum_us_per_rec"] = median3(
        lambda: _timed(chain_checksum, {0: reduced})) / n * MB
    out["storage.record_death_ms"] = 1e3 * median3(
        lambda: _time_record_death(workload))

    # -- transport: one node's shuffle server, fetched as a reducer would
    out.update(_replay_transport(store, tasks, n_parts, piece_bytes))

    # -- recovery: planning the recomputation of one damaged job
    n_tasks = N_NODES * len(blocks)
    damage = {p: [(0, 1)] for p in range(n_parts) if p % N_NODES == VICTIM}
    survivors = [node for node in range(N_NODES) if node != VICTIM]
    present = [t for t in range(n_tasks) if t // len(blocks) != VICTIM]

    def plan() -> float:
        t0 = time.perf_counter()
        for _ in range(100):
            plan_job_recovery(1, damage, range(n_tasks), present,
                              survivors, None)
        return (time.perf_counter() - t0) / 100

    out["recovery.plan_us"] = median3(plan) * MB

    # -- coordinator: the pool's fixed costs
    out.update(_replay_pool(workload, seed, root))
    aux = {"map_frame_bytes": len(encoded) / n,
           "piece_frame_bytes": piece_bytes / len(reduced)}
    return out, aux


def _time_record_death(workload: Workload) -> float:
    """``record_death`` on a registry shaped like the workload's at the
    kill: every job but the last committed (build cost not timed)."""
    registry = ClusterRegistry()
    per_node = -(-workload.records_per_node // workload.records_per_block)
    done = range(1, workload.n_jobs)
    for job in done:
        for task in range(N_NODES * per_node):
            registry.add_map(MapEntry(job, task, task // per_node, None))
        for part in range(workload.n_partitions):
            registry.add_piece(PieceEntry(job, part, 0, 1, part % N_NODES,
                                          workload.records_per_node))
    return _timed(registry.record_death, VICTIM, done)


def _replay_transport(store: NodeStore, tasks: list[int], n_parts: int,
                      piece_bytes: int) -> dict[str, float]:
    server = ShuffleServer(store)
    pool = PeerPool()
    try:
        def maps(part: int, **extra) -> dict:
            return {"kind": "maps", "job": 1, "tasks": tasks,
                    "partition": part, **extra}

        def fetch_all(**extra) -> float:
            return _timed(lambda: [pool.fetch(server.port, maps(p, **extra))
                                   for p in range(n_parts)])

        slice_bytes = sum(len(serve_request(store, maps(p)))
                          for p in range(n_parts))
        pool.fetch(server.port, maps(0))  # connect outside the timing
        rtts = [_timed(pool.fetch, server.port, maps(0, tasks=[]))
                for _ in range(50)]
        return {
            "transport.fetch_tcp_mb_per_s":
                slice_bytes / MB / median3(fetch_all),
            "transport.fetch_rtt_us": statistics.median(rtts) * MB,
            # input bytes the server scans per second while filtering
            "transport.fetch_split_mb_per_s": slice_bytes / MB / median3(
                lambda: fetch_all(split=0, n_splits=2)),
            "transport.fetch_piece_mb_per_s": piece_bytes / MB / median3(
                lambda: _timed(pool.fetch_piece, server.port, 1, 0, 0, 1)),
            "transport.serve_local_mb_per_s": slice_bytes / MB / median3(
                lambda: _timed(lambda: [serve_request(store, maps(p))
                                        for p in range(n_parts)])),
        }
    finally:
        pool.close()
        server.close()


def _replay_pool(workload: Workload, seed: int, root: Path
                 ) -> dict[str, float]:
    config = RuntimeConfig(n_nodes=N_NODES,
                           chain=chain_config(workload, seed))
    starts, stops, rtts = [], [], []
    for i in range(3):
        pool = WorkerPool(config, root / f"pool{i}")
        try:
            starts.append(_timed(pool.start))
            if i == 2:
                rtts = [_dispatch_rtt(pool, k % N_NODES) for k in range(40)]
        finally:
            stops.append(_timed(pool.shutdown))
    return {"coordinator.pool_start_ms": 1e3 * statistics.median(starts),
            "coordinator.pool_shutdown_ms": 1e3 * statistics.median(stops),
            "coordinator.dispatch_rtt_ms": 1e3 * statistics.median(rtts)}


def _dispatch_rtt(pool: WorkerPool, node: int) -> float:
    """A no-data command through ``dispatch`` + ``pump``: drop a map
    output that does not exist and wait for the worker's reply."""
    t0 = time.perf_counter()
    pool.dispatch(node, {"op": "drop", "job": 0, "task": 0,
                         "epoch": pool.epoch, "chain": None})
    while time.perf_counter() - t0 < 10.0:
        msg = pool.pump()
        if msg and msg[0] == "dropped":
            return time.perf_counter() - t0
    raise RuntimeError(f"worker {node} never answered a drop command")


def predicted_cpu_s_per_mrec(workload: Workload, layers: dict[str, float],
                             aux: dict[str, float]) -> float:
    """CPU seconds per million record-visits if a job were nothing but
    the replayed stages: map side (input decode, UDF, partition, encode),
    reduce side (decode, group + sort, UDF, encode) and the coordinator's
    final checksum; fsync waits and transport are not CPU and stay out.
    Job 1 generates its input instead of decoding a piece.  Microseconds
    per visit are seconds per million visits."""
    jobs = workload.n_jobs
    return (
        layers["records.generate_us_per_rec"] / jobs
        + layers["storage.decode_us_per_rec"] * (jobs - 1) / jobs
        + layers["records.map_udf_us_per_rec"]
        + layers["worker.partition_us_per_rec"]
        + layers["storage.decode_us_per_rec"]
        + layers["worker.group_sort_us_per_rec"]
        + layers["records.reduce_udf_us_per_rec"]
        + (layers["storage.decode_us_per_rec"]
           + layers["storage.chain_checksum_us_per_rec"]) / jobs
        + (aux["map_frame_bytes"] + aux["piece_frame_bytes"])
        / layers["storage.encode_mb_per_s"])


# -------------------------------------------------------------- traced chain
_CLASSES = (("recompute-", "recompute"), ("invalidate-", "recompute"),
            ("re-replicate", "replicate"), ("replicate-", "replicate"),
            ("map-", "map"), ("reduce-", "reduce"))


def _phase_class(phase: str) -> Optional[str]:
    for prefix, cls in _CLASSES:
        if phase.startswith(prefix):
            return cls
    return None


def _op(span: dict) -> str:
    """Span names read ``<phase>:<op>:<task key...>``."""
    return span["name"].split(":")[1]


def _task_spans(events: list[dict], since: float = 0.0) -> list[dict]:
    return [ev for ev in events if ev.get("cat") == "task"
            and ev["ph"] == "X" and ev["ts"] >= since]


def _batches(spans: list[dict], cuts: list[float]) -> dict:
    """Group task spans into dispatch batches.  One ``_run_tasks`` call
    dispatches its whole batch between two consecutive hook callbacks, so
    (hook interval of the span's start, phase name) identifies the batch
    even when a phase name recurs (the killed job's second attempt)."""
    batches: dict = {}
    for span in spans:
        segment = bisect.bisect_right(cuts, span["ts"])
        batches.setdefault((segment, span["args"]["phase"]), []).append(span)
    return batches


def _decompose(spans: list[dict], cuts: list[float], wall: float,
               plan_s: float, checksum_s: float) -> dict[str, float]:
    """The wall of one chain as named layers.  A batch occupies the
    coordinator from its first dispatch to its last completion; batches
    of one chain never overlap, so the classes add up and the gap —
    dispatch set-up, pump idle ticks, detection, registry work — is
    whatever of the wall they leave."""
    busy = dict.fromkeys(("map", "reduce", "replicate", "recompute"), 0.0)
    for (_, phase), batch in _batches(spans, cuts).items():
        cls = _phase_class(phase)
        if cls is not None:
            busy[cls] += (max(s["ts"] + s["dur"] for s in batch)
                          - min(s["ts"] for s in batch))
    layers = {f"coordinator.{cls}_phase_s": t for cls, t in busy.items()}
    layers["coordinator.recovery_plan_s"] = plan_s
    layers["coordinator.final_checksum_s"] = checksum_s
    layers["coordinator.gap_s"] = wall - sum(layers.values())
    assert set(layers) == set(WALL_LAYERS)
    layers["coordinator.traced_chain_wall_s"] = wall
    return layers


def _task_counts(workload: Workload, spans: list[dict],
                 cascaded: list[int]) -> dict[str, float]:
    ops = [_op(s) for s in spans]
    recomputed = sum(1 for s in spans
                     if s["args"]["phase"].startswith("recompute-"))
    clean_pass = sum(1 for s in spans if s["args"]["phase"] in
                     {f"{op}-{job}" for op in ("map", "reduce")
                      for job in cascaded})
    return {
        "worker.tasks_run": float(sum(
            ops.count(op) for op in ("map", "reduce", "replicate"))),
        # the paper's minimal-recomputation ratio
        "worker.recomputed_task_frac":
            recomputed / clean_pass if clean_pass else 0.0,
        # every committed output is one fsync'd file: a map task writes a
        # slice per partition (none is empty at these block sizes) plus
        # its meta.json, a reduce or replicate task one piece
        "storage.files_per_chain": float(
            ops.count("map") * (workload.n_partitions + 1)
            + ops.count("reduce") + ops.count("replicate")),
    }


def _task_p50s(spans: list[dict]) -> dict[str, float]:
    out = {}
    for cls in ("map", "reduce", "replicate"):
        durs = [s["dur"] for s in spans
                if _phase_class(s["args"]["phase"]) == cls and _op(s) == cls]
        out[f"worker.{cls}_task_ms_p50"] = (
            1e3 * statistics.median(durs) if durs else 0.0)
    return out


def _shuffle_bytes(report) -> dict[str, float]:
    return {"transport.shuffle_bytes_tcp":
            float(report.total_shuffle_bytes_tcp),
            "transport.shuffle_bytes_local":
            float(report.total_shuffle_bytes_local)}


def chain_layers(workload: Workload, repeat: Repeat, events: list[dict],
                 untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced ``Coordinator`` chain."""
    to_trace = -repeat.clock_offset  # hook stamps -> tracer clock
    cuts = sorted(t + to_trace for t, _, _ in repeat.marks)
    spans = _task_spans(events)
    plan_s = 0.0
    cascaded: list[int] = []
    for t, event, info in repeat.marks:
        if event == "recovery-start":
            cascaded = info["jobs"]
            plan_s = min(s["ts"] for s in spans if s["args"]["phase"]
                         .startswith("recompute-")) - (t + to_trace)
            break
    out = _decompose(spans, cuts, repeat.wall_s, plan_s,
                     repeat.t_return - repeat.times("chain-done")[0])
    out["coordinator.tracing_overhead_frac"] = (
        repeat.wall_s / untraced_wall_s - 1)
    detect, recovery, equiv = repeat.recovery() or (0, 0, 0)
    out["faults.detect_s"] = detect
    out["coordinator.recovery_s"] = recovery
    out["coordinator.recovery_job_equiv"] = equiv
    out.update(_task_p50s(spans))
    out.update(_task_counts(workload, spans, cascaded))
    out.update(_shuffle_bytes(repeat.report))
    return out


def service_layers(workload: Workload, window: Window, events: list[dict],
                   untraced_p50_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced service window.  Task latencies and
    the ``service.*`` numbers come from the loaded window; the layer
    decomposition and the counts come from the chain submitted alone
    afterwards, because task spans carry no chain id and only a chain
    that has the pool to itself owns every span in its interval."""
    good = [c for c in window.chains if not c.failure]
    jobs = [c.job for c in good]
    solo = window.solo.job
    spans = _task_spans(events, since=solo.submitted)
    chain_end = next(ev["ts"] + ev["dur"] for ev in events
                     if ev.get("cat") == "chain"
                     and ev["args"].get("chain_id") == solo.id)
    out = _decompose(spans, [], solo.finished - solo.submitted, 0.0,
                     solo.finished - chain_end)
    out["coordinator.tracing_overhead_frac"] = (
        statistics.median(c.wall_s for c in good) / untraced_p50_s - 1)
    out.update(_task_p50s([s for s in _task_spans(events)
                           if s["ts"] < solo.submitted]))
    out.update(_task_counts(workload, spans, []))
    out.update(_shuffle_bytes(solo.report))
    out["service.admit_wait_ms_p50"] = 1e3 * statistics.median(
        j.started - j.submitted for j in jobs)
    out["service.run_ms_p50"] = 1e3 * statistics.median(
        j.finished - j.started for j in jobs)
    out["service.running_peak"] = float(window.running_peak)
    return out


def complete(layers: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload does not reach the
    layer (no kill, no replication, no service)."""
    return {m.name: float(layers.get(m.name, 0.0)) for m in PER_LAYER}
