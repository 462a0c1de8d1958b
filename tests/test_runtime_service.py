"""Tests for the multi-tenant chain service and the coordinator
lifecycle fixes that enable it.

Fast tests cover the lifecycle regressions (idempotent shutdown,
parallel reaping, the configurable startup deadline), admission-policy
ordering on a live pool, chain-scoped storage paths, and the MTBF
arrival process.  The ``slow`` marker guards the heavier end-to-end
scenarios — concurrent chains under a kill, respawn, and the TCP front
door — which CI runs in the ``runtime-smoke`` job.

Every end-to-end assertion compares a chain's checksum byte-for-byte
against the failure-free in-process :class:`LocalCluster` reference:
multiplexing chains over shared workers must never change a single
byte of any chain's output, kills or not.
"""

import dataclasses
import functools
import json
import multiprocessing
import queue
import socket
import struct
import threading
import time

import pytest

from repro.localexec import LocalCluster, LocalJobConfig
from repro.runtime.coordinator import (
    POOL_FIELDS,
    Coordinator,
    RuntimeConfig,
    WorkerPool,
    _Link,
)
from repro.runtime import protocol
from repro.runtime.service import (
    DONE,
    ChainJob,
    ChainService,
    MTBFKills,
    request,
)
from repro.runtime.storage import NodeStore, chain_checksum
from tests.test_runtime_process import largest_map_share, survivor_tmp_files

TINY = LocalJobConfig(n_jobs=1, n_partitions=2, records_per_node=8,
                      records_per_block=8, seed=0)


@functools.lru_cache(maxsize=None)
def reference_checksum(chain: LocalJobConfig, n_nodes: int = 4) -> str:
    cluster = LocalCluster(n_nodes, chain)
    for job in range(1, chain.n_jobs + 1):
        cluster.run_job(job)
    return chain_checksum(cluster.final_output())


# --------------------------------------------------- lifecycle bugfixes
def test_shutdown_is_idempotent(tmp_path):
    """Regression: shutdown ran its teardown twice (e.g. explicitly and
    then again from the context manager), re-walking dead links."""
    config = RuntimeConfig(n_nodes=2, chain=TINY)
    before = len(multiprocessing.active_children())
    with Coordinator(config, tmp_path / "c") as coord:
        coord.shutdown()
        coord.shutdown()  # second call must be a clean no-op
    # the context manager's exit was call number three
    assert len(multiprocessing.active_children()) == before


def test_failed_start_reaps_workers_and_allows_shutdown(tmp_path,
                                                        monkeypatch):
    """A start() that fails mid-fork must reap the workers it already
    forked, and a later shutdown() must still be safe."""
    import repro.runtime.coordinator as coord_mod

    def dies_instantly(node, *args, **kwargs):
        raise SystemExit(1)

    monkeypatch.setattr(coord_mod, "worker_main", dies_instantly)
    before = len(multiprocessing.active_children())
    config = RuntimeConfig(n_nodes=2, chain=TINY)
    coord = Coordinator(config, tmp_path / "c")
    with pytest.raises(RuntimeError, match="died during startup"):
        coord.start()
    assert len(multiprocessing.active_children()) == before
    coord.shutdown()  # idempotent after the failure path's cleanup


class _SlowReapProc:
    """A fake worker process whose join costs real wall time."""

    def __init__(self, cost: float):
        self.cost = cost
        self._alive = True

    def is_alive(self) -> bool:
        return self._alive

    def join(self, timeout=None):
        time.sleep(self.cost)
        self._alive = False

    def terminate(self):
        self._alive = False

    def kill(self):
        self._alive = False


class _NullPipe:
    def send(self, msg):
        pass

    def close(self):
        pass


def test_shutdown_joins_workers_in_parallel(tmp_path):
    """Regression: shutdown joined links sequentially (up to 3 x 2 s
    *per link*); with parallel reapers teardown is O(slowest worker)."""
    pool = WorkerPool(RuntimeConfig(n_nodes=8, chain=TINY),
                      tmp_path / "c")
    pool._started = True
    for node in range(8):
        pool._links[node] = _Link(node, _SlowReapProc(0.2), _NullPipe(),
                                  _NullPipe())
    t0 = time.monotonic()
    pool.shutdown()
    wall = time.monotonic() - t0
    # serial joins would cost 8 x 0.2 s = 1.6 s minimum
    assert wall < 1.0, f"teardown took {wall:.2f}s — joins are serial"
    assert all(not link.proc.is_alive() for link in pool._links.values())


def test_pump_hands_over_queued_events_without_sleeping(tmp_path):
    """Regression: when several pipes were ready in one tick, ``pump``
    queued all their events, returned one, and then waited out its whole
    timeout for *new* traffic before handing over the next — the spine's
    17-or-37 ms ``setup_s`` coin flip, and a tick at the tail of every
    dispatch batch.  Heartbeats are slowed to 5 s so nothing but the
    two replies can wake the wait."""
    config = RuntimeConfig(n_nodes=2, chain=TINY, heartbeat_interval=5.0)
    with WorkerPool(config, tmp_path / "c") as pool:
        for node in (0, 1):
            pool.dispatch(node, {"op": "drop", "job": 0, "task": 0,
                                 "key": ("drop", 0, node),
                                 "epoch": pool.epoch, "chain": None})
        time.sleep(0.3)  # both replies are sitting in their pipes
        first = pool.pump(timeout=2.0)
        t0 = time.monotonic()
        second = pool.pump(timeout=2.0)
        waited = time.monotonic() - t0
        assert {first.kind, second.kind} == {"dropped"}
        assert {first.node, second.node} == {0, 1}
        assert waited < 1.0, f"pump slept {waited:.2f}s on a full inbox"
        # and an empty inbox still waits for traffic, as before
        t0 = time.monotonic()
        assert pool.pump(timeout=0.2) is None
        assert time.monotonic() - t0 >= 0.15


def test_startup_timeout_config_validation():
    with pytest.raises(ValueError, match="startup_timeout"):
        RuntimeConfig(startup_timeout=0)
    with pytest.raises(ValueError, match="startup_timeout"):
        RuntimeConfig(startup_timeout=-1.0)
    with pytest.raises(ValueError, match="must exceed heartbeat_expiry"):
        RuntimeConfig(heartbeat_expiry=1.0, startup_timeout=0.5)
    # a valid override round-trips
    assert RuntimeConfig(startup_timeout=7.5).startup_timeout == 7.5


def test_startup_timeout_is_enforced(tmp_path, monkeypatch):
    """Regression: the worker-ready deadline was hardcoded at 30 s; a
    configured startup_timeout must bound how long a silent (alive but
    never-ready) worker can stall start()."""
    import repro.runtime.coordinator as coord_mod

    def never_ready(node, *args, **kwargs):
        time.sleep(60)

    monkeypatch.setattr(coord_mod, "worker_main", never_ready)
    config = RuntimeConfig(n_nodes=2, chain=TINY, startup_timeout=0.4)
    before = len(multiprocessing.active_children())
    coord = Coordinator(config, tmp_path / "c")
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="never reported ready"):
        coord.start()
    assert time.monotonic() - t0 < 10.0  # deadline + reaping, not 30 s
    assert len(multiprocessing.active_children()) == before


# ----------------------------------------------------- chain namespacing
def test_node_store_chain_namespace(tmp_path):
    plain = NodeStore(tmp_path, 0)
    scoped = NodeStore(tmp_path, 0, chain="c0001")
    assert plain.dir == tmp_path / "node000"
    assert scoped.dir == tmp_path / "node000" / "chains" / "c0001"
    # for_chain returns self when already scoped, a sibling otherwise
    assert scoped.for_chain("c0001") is scoped
    assert plain.for_chain(None) is plain
    other = scoped.for_chain("c0002")
    assert other.dir == tmp_path / "node000" / "chains" / "c0002"


# ------------------------------------------------------- MTBF arrivals
def test_mtbf_kills_validation():
    with pytest.raises(ValueError):
        MTBFKills(0)
    with pytest.raises(ValueError):
        MTBFKills(10.0, min_alive=0)


def test_mtbf_kills_respects_min_alive_floor():
    kills = MTBFKills(mtbf=1.0, seed=1, min_alive=2)
    assert kills.due(0.0, {0, 1, 2, 3}) == []  # first call arms the clock
    victims = kills.due(50.0, {0, 1, 2, 3})  # ~50 arrivals queued up
    assert len(victims) == 2  # floor: never below min_alive survivors
    assert set(victims) <= {0, 1, 2, 3}
    assert kills.due(50.0, {0, 1}) == []  # at the floor: skipped entirely


def test_mtbf_kills_is_seeded():
    a = MTBFKills(mtbf=1.0, seed=7, min_alive=1)
    b = MTBFKills(mtbf=1.0, seed=7, min_alive=1)
    alive = set(range(8))
    a.due(0.0, alive), b.due(0.0, alive)
    assert a.due(20.0, alive) == b.due(20.0, alive)


# ---------------------------------------------------- admission policies
def test_submit_validates_at_submission_time(tmp_path):
    config = RuntimeConfig(n_nodes=2, chain=TINY)
    service = ChainService(config, tmp_path / "svc")
    with pytest.raises(ValueError, match="unknown strategy"):
        service.submit(chain=TINY, strategy="nonsense")
    with pytest.raises(ValueError, match="admission policy"):
        ChainService(config, tmp_path / "svc2", policy="lottery")


@pytest.mark.parametrize("field, value", [
    ("n_nodes", 8), ("memory_budget", 0),
    ("fetch_timeout", 1.0), ("heartbeat_interval", 0.5),
    ("heartbeat_expiry", 1.0), ("startup_timeout", 5.0)])
def test_submit_refuses_pool_shape_overrides(tmp_path, field, value):
    """Regression: pool-shape fields were silently applied to the
    chain's config (``n_nodes`` silently dropped) although the workers
    were forked with the service's values.  Refused by name at
    submission, in-process and over the TCP front door."""
    service = ChainService(RuntimeConfig(n_nodes=2, chain=TINY),
                           tmp_path / "svc")
    with pytest.raises(ValueError, match=f"cannot override {field}"):
        service.submit(chain=TINY, **{field: value})
    port = service.serve(port=0)
    try:
        with pytest.raises(RuntimeError,
                           match=f"cannot override {field}"):
            request(port, {"op": "submit", "overrides": {field: value}})
        assert service.status()["queued"] == 0
        # chain-level knobs stay overridable
        job = service.submit(chain=TINY, strategy="optimistic",
                             io_timeout=20.0)
        assert job.config.strategy == "optimistic"
    finally:
        service._stop.set()
        service._server.close()


@pytest.mark.parametrize("field, value", [("task_slots", 2),
                                          ("speculation", True)])
def test_submit_refuses_removed_fields(tmp_path, field, value):
    """Task slots and the speculation switch are gone from
    ``RuntimeConfig``: a submission naming one fails like any unknown
    field, in-process and over the TCP front door."""
    service = ChainService(RuntimeConfig(n_nodes=2, chain=TINY),
                           tmp_path / "svc")
    with pytest.raises(TypeError, match=field):
        service.submit(chain=TINY, **{field: value})
    port = service.serve(port=0)
    try:
        with pytest.raises(RuntimeError, match=field):
            request(port, {"op": "submit", "overrides": {field: value}})
        assert service.status()["queued"] == 0
    finally:
        service._stop.set()
        service._server.close()


def test_pool_fields_name_real_config_fields():
    """A field deleted from ``RuntimeConfig`` may not linger in the
    refusal list (it would refuse an override nobody can spell)."""
    assert POOL_FIELDS <= {f.name for f in
                           dataclasses.fields(RuntimeConfig)}


def test_router_delivers_by_chain_and_drops_pool_events(tmp_path):
    """Readiness and heartbeats carry no chain (regression: the router
    read a ``ready`` message's pid as its chain id); task events reach
    exactly the running chain they name."""
    service = ChainService(RuntimeConfig(n_nodes=2, chain=TINY),
                           tmp_path / "svc")
    jobs = {cid: ChainJob(id=str(cid), tenant="t", config=service.config,
                          inbox=queue.Queue())
            for cid in ("c0001", 4242)}
    service._running.update(jobs)
    done = protocol.reply("map-done", 0, {"key": ("map", 1, 0),
                                          "epoch": 0, "chain": "c0001"},
                          pid=4242)
    for event in (protocol.ready(0, port=4000, pid=4242),
                  protocol.heartbeat(0), done,
                  done._replace(chain="c0002")):  # finished: dropped
        service._route(event)
    assert jobs["c0001"].inbox.get_nowait() == done
    assert jobs["c0001"].inbox.empty() and jobs[4242].inbox.empty()


def test_fifo_admission_runs_chains_in_submission_order(tmp_path):
    config = RuntimeConfig(n_nodes=2, chain=TINY)
    with ChainService(config, tmp_path / "svc",
                      max_concurrent=1) as service:
        jobs = [service.submit(chain=LocalJobConfig(
            n_jobs=1, n_partitions=2, records_per_node=8,
            records_per_block=8, seed=s)) for s in (1, 2, 3)]
        for job in jobs:
            service.wait(job.id, timeout=60)
        assert all(job.state == DONE for job in jobs)
        # with max_concurrent=1, start order is the admission order
        starts = [job.started for job in jobs]
        assert starts == sorted(starts)
        for job, seed in zip(jobs, (1, 2, 3)):
            assert job.report.checksum == reference_checksum(
                LocalJobConfig(n_jobs=1, n_partitions=2,
                               records_per_node=8, records_per_block=8,
                               seed=seed), 2)


def test_fair_share_admits_least_loaded_tenant_first(tmp_path):
    """Three chains from alice then one from bob: after alice's first
    chain, fair-share admits bob's before alice's backlog."""
    config = RuntimeConfig(n_nodes=2, chain=TINY)
    with ChainService(config, tmp_path / "svc", policy="fair",
                      max_concurrent=1) as service:
        a1 = service.submit(chain=TINY, tenant="alice")
        a2 = service.submit(chain=TINY, tenant="alice")
        a3 = service.submit(chain=TINY, tenant="alice")
        b1 = service.submit(chain=TINY, tenant="bob")
        for job in (a1, a2, a3, b1):
            service.wait(job.id, timeout=60)
        order = sorted((a1, a2, a3, b1), key=lambda j: j.started)
        assert [j.id for j in order] == [a1.id, b1.id, a2.id, a3.id]


def test_a_lone_submit_is_admitted_at_once(tmp_path):
    """Regression: ``submit`` queued the chain and left admission to the
    service loop, which only looks between ``pump(timeout=0.02)`` calls
    — on an idle service (one closed-loop client, nothing in flight to
    wake the pump) every chain waited out the tick, a median 18 ms."""
    config = RuntimeConfig(n_nodes=2, chain=TINY)
    waits = []
    with ChainService(config, tmp_path / "svc") as service:
        for _ in range(10):
            job = service.submit(chain=TINY)
            assert job.started is not None  # admitted by submit itself
            waits.append(job.started - job.submitted)
            assert service.wait(job.id, timeout=60).state == DONE
    assert sorted(waits)[len(waits) // 2] < 0.005


def test_a_finishing_chain_hands_its_slot_to_the_queue(tmp_path):
    """... and the chain behind a full house starts when a slot frees,
    not a pump tick later: the finishing chain's thread admits it."""
    config = RuntimeConfig(n_nodes=2, chain=TINY)
    with ChainService(config, tmp_path / "svc",
                      max_concurrent=1) as service:
        waits = []
        for _ in range(5):
            first = service.submit(chain=TINY)
            queued = service.submit(chain=TINY)
            for job in (first, queued):
                assert service.wait(job.id, timeout=60).state == DONE
            waits.append(queued.started - first.finished)
    assert min(waits) >= 0  # one at a time
    assert sorted(waits)[len(waits) // 2] < 0.005


# ------------------------------------------------- end-to-end scenarios
def test_service_runs_one_chain_end_to_end(tmp_path):
    chain = LocalJobConfig(n_jobs=2, n_partitions=2, records_per_node=16,
                           records_per_block=8, seed=5)
    config = RuntimeConfig(n_nodes=2, chain=TINY)
    # cache on: the close-time sweep spares the registered reduce jobs,
    # so the namespace outlives the chain (with the cache off the
    # workers delete it moments after wait() returns — checking for it
    # then is a race)
    with ChainService(config, tmp_path / "svc",
                      cache_budget=1 << 20) as service:
        job = service.submit(chain=chain)
        service.wait(job.id, timeout=60)
        assert job.state == DONE, job.error
        assert job.report.chain_id == job.id
        assert job.report.checksum == reference_checksum(chain, 2)
        # the chain's files live under its namespace on each node
        scoped = tmp_path / "svc" / "node000" / "chains" / job.id
        assert (scoped / "reduce").is_dir()


@pytest.mark.slow
def test_concurrent_chains_all_match_references(tmp_path):
    """>= 3 chains multiplexed over one pool, every checksum exact."""
    chains = [LocalJobConfig(n_jobs=2, n_partitions=4,
                             records_per_node=32, records_per_block=8,
                             seed=s) for s in (1, 2, 3)]
    config = RuntimeConfig(n_nodes=4, chain=TINY)
    with ChainService(config, tmp_path / "svc",
                      max_concurrent=3) as service:
        jobs = [service.submit(chain=c) for c in chains]
        for job, chain in zip(jobs, chains):
            service.wait(job.id, timeout=120)
            assert job.state == DONE, job.error
            assert job.report.checksum == reference_checksum(chain)
        assert service.running_peak >= 3


def _wait_for(predicate, deadline=60.0, interval=0.005):
    t_end = time.monotonic() + deadline
    while time.monotonic() < t_end:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


@pytest.mark.slow
def test_kill_cascades_only_chains_with_pieces_on_dead_node(tmp_path):
    """Per-chain recovery isolation: chain A places reducer pieces on
    every node (4 partitions), chain B only on nodes 0-1 (2
    partitions).  Killing node 3 mid-flight must make A recompute and
    leave B's job timeline untouched — and both stay byte-exact."""
    chain_a = LocalJobConfig(n_jobs=3, n_partitions=4,
                             records_per_node=48, records_per_block=16,
                             seed=7)
    chain_b = LocalJobConfig(n_jobs=4, n_partitions=2,
                             records_per_node=48, records_per_block=16,
                             seed=8)
    config = RuntimeConfig(n_nodes=4, chain=TINY)
    with ChainService(config, tmp_path / "svc",
                      max_concurrent=2) as service:
        job_a = service.submit(chain=chain_a)
        job_b = service.submit(chain=chain_b)
        # kill once both chains have committed job 1 (A's pieces now sit
        # on node 3; B's never will) and are still mid-chain
        _wait_for(lambda: job_a.run is not None and job_b.run is not None
                  and 1 in job_a.run.done_jobs
                  and 1 in job_b.run.done_jobs)
        service.pool.kill_node(3)
        service.wait(job_a.id, timeout=120)
        service.wait(job_b.id, timeout=120)
        assert job_a.state == DONE, job_a.error
        assert job_b.state == DONE, job_b.error
        kinds_a = [k for _, k, _ in job_a.report.job_times]
        kinds_b = [k for _, k, _ in job_b.report.job_times]
        assert "recompute" in kinds_a or "rerun" in kinds_a
        assert kinds_b == ["run"] * chain_b.n_jobs  # uninterrupted
        assert job_a.report.checksum == reference_checksum(chain_a)
        assert job_b.report.checksum == reference_checksum(chain_b)


@pytest.mark.slow
def test_one_death_cancels_both_chains_queued_phases(tmp_path):
    """Two wide chains share the workers' queues when a node dies: the
    one epoch bump cancels both chains' phases, each worker skips the
    runs it had queued for *either* chain, and between them the chains
    see no more cancelled-epoch commits than one run — one chain's share
    of a map phase — per survivor: a worker runs one run at a time, so
    both chains' shares committing on a survivor (the queue not skipped)
    exceeds the bound.  Both outputs stay byte-exact and no aborted task
    leaves a tmp file."""
    chains = [LocalJobConfig(n_jobs=3, n_partitions=4,
                             records_per_node=6_000, records_per_block=600,
                             seed=seed) for seed in (21, 22)]
    config = RuntimeConfig(n_nodes=4, chain=TINY)
    with ChainService(config, tmp_path / "svc",
                      max_concurrent=2) as service:
        jobs = [service.submit(chain=chain) for chain in chains]
        _wait_for(lambda: all(job.run is not None
                              and 1 in job.run.done_jobs
                              for job in jobs))
        service.pool.kill_node(3)
        for job in jobs:
            service.wait(job.id, timeout=120)
            assert job.state == DONE, job.error
        for job, chain in zip(jobs, chains):
            assert job.report.checksum == reference_checksum(chain)
            assert [node for _, node in job.report.deaths] == [3]
        share = max(largest_map_share(chain, [2, 3]) for chain in chains)
        assert sum(job.report.cancelled_commits for job in jobs) <= \
            3 * share
        assert survivor_tmp_files(tmp_path / "svc", (0, 1, 2)) == []


@pytest.mark.slow
def test_replace_dead_respawns_and_restores_capacity(tmp_path):
    """With replace_dead, a killed node id rejoins the pool and later
    chains use the full width again.  The replacement works in the dead
    incarnation's directory: its map segments are still there, here
    each with the torn tail a SIGKILL mid-append leaves, and the chain
    still ends in the exact checksum."""
    chain = LocalJobConfig(n_jobs=2, n_partitions=4,
                           records_per_node=32, records_per_block=8,
                           seed=4)
    config = RuntimeConfig(n_nodes=4, chain=TINY)
    torn = []
    with ChainService(config, tmp_path / "svc", max_concurrent=2,
                      replace_dead=True) as service:
        real_respawn = service.pool.respawn

        def respawn(node):
            for segment in (tmp_path / "svc" / f"node{node:03d}").rglob(
                    "*.seg"):
                with open(segment, "ab") as fh:  # half a section
                    fh.write(struct.pack(">Qq", 4096, 7) + b"torn")
                torn.append(segment)
            return real_respawn(node)

        service.pool.respawn = respawn
        job = service.submit(chain=chain)
        _wait_for(lambda: job.run is not None
                  and 1 in job.run.done_jobs)
        service.pool.kill_node(2)
        service.wait(job.id, timeout=120)
        assert job.state == DONE, job.error
        assert job.report.checksum == reference_checksum(chain)
        assert torn
        _wait_for(lambda: service.pool.alive == {0, 1, 2, 3})
        follow_up = service.submit(chain=LocalJobConfig(
            n_jobs=1, n_partitions=4, records_per_node=16,
            records_per_block=8, seed=6))
        service.wait(follow_up.id, timeout=120)
        assert follow_up.state == DONE, follow_up.error
        assert follow_up.report.checksum == reference_checksum(
            LocalJobConfig(n_jobs=1, n_partitions=4,
                           records_per_node=16, records_per_block=8,
                           seed=6))


@pytest.mark.slow
def test_tcp_front_door_submit_status_wait(tmp_path):
    chain_req = {"n_jobs": 1, "n_partitions": 2, "records_per_node": 8,
                 "records_per_block": 8, "seed": 9}
    config = RuntimeConfig(n_nodes=2, chain=TINY)
    with ChainService(config, tmp_path / "svc") as service:
        port = service.serve(port=0)
        assert request(port, {"op": "ping"})["ok"]
        chain_id = request(port, {"op": "submit",
                                  "chain": chain_req})["id"]
        job = request(port, {"op": "wait", "id": chain_id,
                             "timeout": 60})["job"]
        assert job["state"] == "done"
        assert job["report"]["checksum"] == reference_checksum(
            LocalJobConfig(**chain_req), 2)
        status = request(port, {"op": "status"})["status"]
        assert status["alive"] == [0, 1]
        assert any(j["id"] == chain_id for j in status["jobs"])
        # a malformed submission is refused over the wire, not crashed on
        with pytest.raises(RuntimeError, match="unknown strategy"):
            request(port, {"op": "submit", "chain": chain_req,
                           "overrides": {"strategy": "bogus"}})
        request(port, {"op": "shutdown"})
        assert service.shutdown_requested.wait(5.0)


def _raw_request(port: int, raw: bytes) -> dict:
    """Send raw bytes to the front door; return the decoded reply
    without the ok-check :func:`request` applies."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10.0) as conn:
        conn.sendall(raw)
        data = b""
        while not data.endswith(b"\n"):
            got = conn.recv(65536)
            if not got:
                break
            data += got
    return json.loads(data)


def test_tcp_front_door_error_paths(tmp_path, monkeypatch):
    """Garbage on the wire gets a structured error reply, never a
    crashed handler thread or a dropped connection.  The front door
    needs no running workers, so this exercises it pool-less."""
    import repro.runtime.service as service_mod

    config = RuntimeConfig(n_nodes=2, chain=TINY)
    service = ChainService(config, tmp_path / "svc")
    port = service.serve(port=0)
    try:
        # malformed JSON (and the empty request degenerate case)
        reply = _raw_request(port, b"{this is not json\n")
        assert reply["ok"] is False and "JSONDecodeError" in reply["error"]
        reply = _raw_request(port, b"\n")
        assert reply["ok"] is False

        # valid JSON, unknown op
        reply = _raw_request(port, b'{"op": "frobnicate"}\n')
        assert reply == {"ok": False, "error": "unknown op 'frobnicate'"}

        # oversized payload: refused with the limit in the message, and
        # the reply still arrives even though the request was drained
        monkeypatch.setattr(service_mod, "MAX_REQUEST_BYTES", 4096)
        huge = (b'{"op": "ping", "pad": "' + b"x" * 8192 + b'"}\n')
        reply = _raw_request(port, huge)
        assert reply["ok"] is False
        assert "request exceeds 4096 bytes" in reply["error"]

        # the door still works after every abuse above
        assert _raw_request(port, b'{"op": "ping"}\n') == {"ok": True}
    finally:
        service._stop.set()
        service._server.close()


@pytest.mark.slow
def test_service_mtbf_faults_fire_and_chains_survive(tmp_path):
    """A service under seeded MTBF arrivals keeps completing chains
    byte-exactly (min_alive floors the carnage)."""
    chain = LocalJobConfig(n_jobs=3, n_partitions=4,
                           records_per_node=32, records_per_block=8,
                           seed=3)
    config = RuntimeConfig(n_nodes=4, chain=TINY)
    # seed 1 @ mtbf 0.8: first arrival ~0.12 s in — a fast host finishes
    # two chains sooner, so keep the service loaded until a kill landed
    kills = MTBFKills(mtbf=0.8, seed=1, min_alive=2)
    with ChainService(config, tmp_path / "svc", faults=kills,
                      max_concurrent=2) as service:
        jobs = []
        deadline = time.monotonic() + 60.0
        while not service.pool.deaths and time.monotonic() < deadline:
            pair = [service.submit(chain=chain) for _ in range(2)]
            jobs += pair
            for job in pair:
                service.wait(job.id, timeout=180)
        assert service.pool.deaths  # the arrivals really fired
        for job in jobs:
            assert job.state == DONE, job.error
            assert job.report.checksum == reference_checksum(chain)
        assert len(service.pool.alive) >= 2


def test_drain_shutdown_fails_queued_chains(tmp_path):
    config = RuntimeConfig(n_nodes=2, chain=TINY)
    service = ChainService(config, tmp_path / "svc", max_concurrent=1)
    service.start()
    running = service.submit(chain=TINY)
    queued = service.submit(chain=TINY)
    queued2 = service.submit(chain=TINY)
    service.wait(running.id, timeout=60)
    # shut down while the backlog is still queued: queued chains fail
    # loudly instead of hanging their waiters
    threading.Thread(target=service.shutdown, daemon=True).start()
    for job in (queued, queued2):
        job.done.wait(30.0)
    assert {queued.state, queued2.state} <= {DONE, "failed"}
