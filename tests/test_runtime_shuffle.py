"""Tests for the pipelined shuffle data plane.

Fast tests cover the pieces in isolation: server-side split filtering
(property-checked against the client-side filter), persistent
``PeerPool`` connections (reuse, reconnect after a peer restart, dead
peers resolving to :class:`FetchError`), the worker's fetch loop
failing cleanly on a dead source, the once-per-epoch ports broadcast,
and the control-plane protocol (every event kind through a real pipe,
the one stale-event guard, the speculative-loser sweep).  The ``slow``
tests re-prove checksum neutrality end to end: multi-slot workers must
reproduce the in-process reference byte-for-byte under kills, and
server-side filtering must actually shrink the recompute shuffle.
"""

import collections
import contextlib
import multiprocessing
import os
import socket
import struct
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.localexec import md5 as md5_mod
from repro.localexec.records import generate_records, split_of
from repro.obs import RecordingTracer
from repro.runtime import protocol
from repro.runtime import worker as worker_mod
from repro.runtime.coordinator import Coordinator, RuntimeConfig, _Link
from repro.runtime.storage import (
    NodeStore,
    PieceEntry,
    decode_records,
    encode_records,
    filter_split,
    scan_map_segment,
)
from repro.runtime.transport import (
    FetchError,
    PeerPool,
    ShuffleServer,
    serve_request,
)
from repro.runtime.worker import _Worker

from tests.test_runtime_process import (
    CHAIN,
    KillAt,
    KillPlan,
    reference_checksum,
    run_process_chain,
)


# ------------------------------------------------------- split filtering
def test_filter_split_matches_client_side_filter():
    """Property check: the raw-frame server-side filter returns exactly
    the bytes a client-side decode/filter/encode round trip would."""
    for seed in range(4):
        records = generate_records(200, seed=seed, value_size=5 + seed)
        data = encode_records(records)
        for n_splits in (1, 2, 3, 5, 8):
            reassembled = []
            for split in range(n_splits):
                expected = encode_records(
                    [r for r in records
                     if split_of(r.key, n_splits) == split])
                got = filter_split(data, split, n_splits)
                assert got == expected
                reassembled.extend(decode_records(got))
            assert sorted(reassembled) == sorted(records)


def test_filter_split_rejects_truncated_data():
    data = encode_records(generate_records(8, seed=0))
    with pytest.raises(ValueError):
        filter_split(data[:-1], 0, 2)


def test_serve_request_filters_maps_server_side(tmp_path):
    """A ``maps`` request with split/n_splits ships the filtered slice
    concatenation; without them it ships everything."""
    store = NodeStore(tmp_path, 0)
    r1 = generate_records(40, seed=1)
    r2 = generate_records(40, seed=2)
    store.write_map_output(1, 0, None, {0: r1})
    store.write_map_output(1, 1, None, {0: r2})
    base = {"kind": "maps", "job": 1, "tasks": [0, 1], "partition": 0}
    full = serve_request(store, base)
    assert full == encode_records(r1) + encode_records(r2)
    for split in range(2):
        filtered = serve_request(store, {**base, "split": split,
                                         "n_splits": 2})
        assert filtered == (filter_split(encode_records(r1), split, 2)
                            + filter_split(encode_records(r2), split, 2))


# ------------------------------------------------- persistent connections
def _piece_store(tmp_path, node=0):
    store = NodeStore(tmp_path, node)
    records = generate_records(24, seed=7)
    store.write_piece(1, 0, 0, 1, records)
    return store, encode_records(records)


def test_peer_pool_reuses_one_connection(tmp_path):
    store, payload = _piece_store(tmp_path)
    server = ShuffleServer(store, timeout=5.0)
    pool = PeerPool(timeout=2.0)
    try:
        for _ in range(5):
            assert pool.fetch_piece(server.port, 1, 0, 0, 1) == payload
        time.sleep(0.05)  # let any surplus connections register
        assert server.connections_accepted == 1
    finally:
        pool.close()
        server.close()


def test_shuffle_sockets_disable_nagle_on_both_ends(tmp_path):
    """A split-filtered response leaves the server in several small
    ``sendmsg`` calls; with Nagle on, the second waits ~40 ms for the
    client's delayed ACK.  Both ends must carry ``TCP_NODELAY`` — also
    after a reconnect (no timing assertion: the option is the fix)."""
    store, payload = _piece_store(tmp_path)
    server = ShuffleServer(store, timeout=5.0)
    pool = PeerPool(timeout=2.0)

    def nodelay(sock):
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    try:
        for _ in range(2):
            assert pool.fetch_piece(server.port, 1, 0, 0, 1) == payload
            client = pool._peers[server.port].sock
            [accepted] = list(server._conns)
            assert nodelay(client) and nodelay(accepted)
            client.close()  # the next fetch fails once, then reconnects
            deadline = time.monotonic() + 2.0
            while server._conns and time.monotonic() < deadline:
                time.sleep(0.01)  # server notices the close
    finally:
        pool.close()
        server.close()


def test_peer_pool_reconnects_after_peer_restart(tmp_path):
    """A worker that outlives its peer's restart keeps fetching: the
    pooled connection dies with the old server and is transparently
    rebuilt against the new one on the same port."""
    store, payload = _piece_store(tmp_path)
    server = ShuffleServer(store, timeout=5.0)
    port = server.port
    pool = PeerPool(timeout=2.0)
    try:
        assert pool.fetch_piece(port, 1, 0, 0, 1) == payload
        server.close()
        server = ShuffleServer(store, timeout=5.0, port=port)
        assert pool.fetch_piece(port, 1, 0, 0, 1) == payload
        assert server.connections_accepted == 1
    finally:
        pool.close()
        server.close()


def test_fetch_from_dead_peer_raises_fetch_error():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nobody listens here any more
    pool = PeerPool(timeout=0.3, retries=2, backoff=0.01)
    try:
        with pytest.raises(FetchError):
            pool.fetch_piece(port, 1, 0, 0, 1)
    finally:
        pool.close()


# --------------------------------------------------------- shuffle fetch
class _EventSink:
    def __init__(self):
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)


def _make_worker(tmp_path, node=99):
    store = NodeStore(tmp_path, node)
    return _Worker(node, store, _EventSink(), seed=0, records_per_node=8,
                   value_size=8, options={"fetch_timeout": 0.3})


def test_fetch_merge_dead_source_raises_without_hanging(tmp_path):
    """One dead source after a live one: the live response lands, the
    dead one surfaces as FetchError out of the pool's bounded retries —
    the task fails cleanly instead of hanging."""
    live_store = NodeStore(tmp_path, 0)
    live_store.write_map_output(1, 0, None,
                                {0: generate_records(10, seed=0)})
    live = ShuffleServer(live_store, timeout=5.0)
    dead = socket.socket()
    dead.bind(("127.0.0.1", 0))
    dead_port = dead.getsockname()[1]
    dead.close()
    ports = {0: live.port, 1: dead_port}
    worker = _make_worker(tmp_path)
    landed = {}
    try:
        requests = [(n, {"kind": "maps", "job": 1, "tasks": [0],
                         "partition": 0}) for n in (0, 1)]
        t0 = time.monotonic()
        with pytest.raises(FetchError):
            worker._fetch_merge(requests, ports, landed.__setitem__)
        assert time.monotonic() - t0 < 5.0
        assert 0 in landed and 1 not in landed
    finally:
        worker.close()
        live.close()


# ------------------------------------------- coordinator dispatch plumbing
class _FakeProc:
    def is_alive(self):
        return True


def _fake_linked_coordinator(tmp_path, config=None, tracer=None):
    """A coordinator wired to an in-test pipe pair instead of a forked
    worker, so dispatch-loop behaviour is testable deterministically."""
    config = config or RuntimeConfig(n_nodes=1, chain=CHAIN)
    coord = Coordinator(config, tmp_path / "cluster", tracer=tracer)
    cmd_recv, cmd_send = multiprocessing.Pipe(duplex=False)
    evt_recv, evt_send = multiprocessing.Pipe(duplex=False)
    coord.pool._links[0] = _Link(0, _FakeProc(), cmd_send, evt_recv,
                                 pid=4242, port=1,
                                 last_seen=time.monotonic())
    coord.pool.alive = {0}
    return coord, cmd_recv, evt_send


def _event(kind, key, node=0, epoch=0, chain=None, **fields):
    """What a worker on ``node`` answers to a command stamped
    ``key``/``epoch``/``chain``."""
    return protocol.reply(kind, node, {"key": key, "epoch": epoch,
                                       "chain": chain}, pid=4242, **fields)


def _drain_commands(cmd_recv):
    cmds = []
    while cmd_recv.poll():
        cmds.append(cmd_recv.recv())
    return cmds


MAP_KEY = ("map", 1, 0)
REDUCE_KEY = ("reduce", 1, 0, 0, 1)
#: op -> (task key, command, a completion's op-specific result)
BATCHES = {
    "map": (MAP_KEY, {"op": "map", "job": 1, "task": 0, "origin": None},
            {0: 5}),
    "reduce": (REDUCE_KEY, {"op": "reduce", "job": 1, "partition": 0,
                            "split": 0, "n_splits": 1}, 5),
    "replicate": (("replicate", 1, 0, 0, 1, 0),
                  {"op": "replicate", "job": 1, "partition": 0,
                   "split": 0, "n_splits": 1}, None),
    "drop": (("drop", 1, 0), {"op": "drop", "job": 1, "task": 0}, None),
    "drop-job": (("drop-job", 1, 0), {"op": "drop-job", "job": 1}, 128),
    "reclaim": (("reclaim", 2, 0), {"op": "reclaim", "anchor": 2}, 128),
}
#: event kind -> op of the outstanding batch it is aimed at (failures
#: and the fire-and-forget piece sweep ride on a map / reduce batch)
STALE_KINDS = {**{protocol.DONE[op]: op for op in BATCHES},
               "piece-dropped": "reduce", "task-failed": "map",
               "task-error": "map"}


@pytest.mark.parametrize("reason", ["epoch", "chain", "key"])
@pytest.mark.parametrize("kind", sorted(STALE_KINDS))
def test_stale_event_is_discarded(tmp_path, kind, reason):
    """The one guard: an event of any kind from a cancelled epoch, from
    another chain, or for a key this batch does not hold registers
    nothing, counts no shuffle bytes and leaves the task outstanding —
    even when it names a node whose link is gone (regression: the link
    lookup used to run before the guard) or reports a software error."""
    coord, cmd_recv, evt_send = _fake_linked_coordinator(tmp_path)
    run, pool = coord.chain_run, coord.pool
    pool.epoch = 3
    op = STALE_KINDS[kind]
    key, cmd, result = BATCHES[op]
    if op == "replicate":  # a replica needs its primary registered
        run.registry.add_piece(PieceEntry(1, 0, 0, 1, node=5, n_records=5))
    stale = {"epoch": dict(epoch=2), "chain": dict(epoch=3, chain="c0009"),
             "key": dict(epoch=3)}[reason]
    stale_key = (op, 7, 7, 7, 7, 7) if reason == "key" else key
    if kind == "piece-dropped":  # only ever answers a loser sweep
        stale_key = ("sweep", *REDUCE_KEY)
    evt_send.send(_event(kind, stale_key, node=9, fetched=999, local=999,
                         result=result if kind in protocol.DONE.values()
                         else "boom", **stale))
    # the real completion, which only an intact ``outstanding`` consumes
    evt_send.send(_event(protocol.DONE[op], key, epoch=3, fetched=10,
                         local=20, result=result))
    pieces, freed = [], []
    run._run_tasks({key: (0, cmd)}, phase="test", on_piece=pieces.append,
                   on_freed=freed.append)
    assert not pool._links[0].evt.poll()  # both events were consumed
    assert run.shuffle_bytes == {"test": 10}
    assert run.shuffle_bytes_local == {"test": 20}
    assert [e.node for e in run.registry.map_outputs.values()] == \
        ([0] if op == "map" else [])
    assert [e.node for e in pieces] == ([0] if op == "reduce" else [])
    assert run.registry.replicas == \
        ({(1, 0, 0, 1): {0, 5}} if op == "replicate" else {})
    assert freed == ([128] if op in ("drop-job", "reclaim") else [])
    # only a *task* completion from an older epoch of this chain is a
    # commit the cancellation came too late for
    assert run.cancelled_commits == \
        (reason == "epoch" and kind in protocol.TASK_DONE)
    sent = _drain_commands(cmd_recv)
    assert [c["op"] for c in sent] == ["ports", op]  # nothing re-sent
    assert (sent[1]["key"], sent[1]["epoch"], sent[1]["chain"]) == \
        (key, 3, None)


@pytest.mark.parametrize("path", ["run_tasks", "drain"])
def test_speculative_loser_is_swept_exactly_once(tmp_path, path):
    """A resolved race's losing attempt commits late: its event misses
    the guard, is accounted as wasted work and its output swept with one
    drop / drop-piece under its own ``("sweep", ...)`` key — once, however
    many duplicates arrive, from the dispatch loop and from the
    end-of-chain drain alike."""
    tracer = RecordingTracer()
    coord, cmd_recv, evt_send = _fake_linked_coordinator(tmp_path,
                                                         tracer=tracer)
    run = coord.chain_run
    run._spec_losers = {MAP_KEY: 0, REDUCE_KEY: 0}
    for key, kind, result in ((MAP_KEY, "map-done", {0: 5}),
                              (MAP_KEY, "map-done", {0: 5}),
                              (("sweep", *REDUCE_KEY), "piece-dropped", 64),
                              (REDUCE_KEY, "reduce-done", 5)):
        evt_send.send(_event(kind, key, fetched=100, result=result))
    if path == "run_tasks":
        evt_send.send(_event("dropped", ("drop", 2, 0)))
        run._run_tasks({("drop", 2, 0): (0, {"op": "drop", "job": 2,
                                             "task": 0})}, phase="test")
    else:
        run._drain_spec_losers(deadline=5.0)
    assert run._spec_losers == {}
    assert run.spec_wasted_bytes == 200
    assert run.registry.map_outputs == {} and run.registry.pieces == {}
    sweeps = [c for c in _drain_commands(cmd_recv)
              if c["op"] != "ports" and c["key"][0] == "sweep"]
    assert [(c["op"], c["key"]) for c in sweeps] == \
        [("drop", ("sweep", *MAP_KEY)),
         ("drop-piece", ("sweep", *REDUCE_KEY))]
    [swept] = [e for e in tracer.events
               if e["name"] == "speculation-swept"]
    assert swept["args"] == {"node": 0, "job": 1, "partition": 0,
                             "split": 0, "n_splits": 1, "freed": 64}


def test_cancelled_loser_settles_without_a_sweep(tmp_path):
    """The losing attempt of a resolved race was skipped in its worker's
    queue by an epoch bump: its ``cancelled`` failure settles the race
    entry (nothing was written, nothing is swept or counted), so the
    end-of-chain drain returns at once instead of at its deadline."""
    tracer = RecordingTracer()
    coord, cmd_recv, evt_send = _fake_linked_coordinator(tmp_path,
                                                         tracer=tracer)
    run = coord.chain_run
    coord.pool.epoch = 1
    run._spec_losers = {MAP_KEY: 0, REDUCE_KEY: 0}
    evt_send.send(_event("task-failed", MAP_KEY, result="cancelled"))
    evt_send.send(_event("reduce-done", REDUCE_KEY, fetched=7, result=5))
    t0 = time.monotonic()
    run._drain_spec_losers(deadline=5.0)
    assert time.monotonic() - t0 < 2.0
    assert run._spec_losers == {}
    # the reducer did commit under the cancelled epoch: counted, traced,
    # accounted as the race's wasted work and swept
    assert run.cancelled_commits == 1 and run.spec_wasted_bytes == 7
    [cancelled] = [e for e in tracer.events
                   if e["name"] == "cancelled-commit"]
    assert cancelled["args"] == {"node": 0,
                                 "key": [str(k) for k in REDUCE_KEY]}
    assert [c["op"] for c in _drain_commands(cmd_recv)] == \
        ["ports", "drop-piece"]


def test_every_event_kind_survives_a_real_pipe():
    """Events cross the worker -> coordinator pipe pickled; each kind
    must come back as an :class:`Event` with its fields by name."""
    events = [protocol.ready(2, port=4000, pid=77), protocol.heartbeat(2)]
    for op, (key, _cmd, result) in BATCHES.items():
        events.append(_event(protocol.DONE[op], key, node=2, epoch=4,
                             chain="c0001", fetched=3, local=4,
                             result=result))
    events += [_event("piece-dropped", ("sweep", *REDUCE_KEY), result=64),
               _event("task-failed", MAP_KEY, result="peer down"),
               _event("task-error", MAP_KEY, result="Traceback ...")]
    recv, send = multiprocessing.Pipe(duplex=False)
    for event in events:
        send.send(event)
        got = recv.recv()
        assert isinstance(got, protocol.Event) and got == event
        assert got[0] == got.kind and got[:4] == (
            got.kind, got.node, got.epoch, got.chain)
    assert {e.kind for e in events} == \
        {"ready", "hb", "task-failed", "task-error",
         *protocol.DONE.values()}
    ready, beat = events[:2]
    assert (ready.result, ready.pid, ready.chain, ready.key) == \
        (4000, 77, None, None)
    assert beat.chain is None and beat.epoch is None


def test_ports_broadcast_once_per_epoch(tmp_path):
    coord, cmd_recv, evt_send = _fake_linked_coordinator(tmp_path)
    run = coord.chain_run
    for task in (0, 1):
        evt_send.send(_event("dropped", ("drop", 1, task)))
        run._run_tasks({("drop", 1, task): (0, {"op": "drop", "job": 1,
                                                "task": task})},
                       phase="test")
    cmds = [cmd_recv.recv() for _ in range(3)]
    assert [c["op"] for c in cmds] == ["ports", "drop", "drop"]
    assert cmds[0]["ports"] == {0: 1}
    # a death bumps the epoch: the next dispatch re-broadcasts
    coord.pool.epoch += 1
    evt_send.send(_event("dropped", ("drop", 1, 2), epoch=1))
    run._run_tasks({("drop", 1, 2): (0, {"op": "drop", "job": 1,
                                         "task": 2})}, phase="test")
    assert [cmd_recv.recv()["op"] for _ in range(2)] == ["ports", "drop"]


def test_config_validates_data_plane_knobs():
    with pytest.raises(ValueError):
        RuntimeConfig(task_slots=0)
    with pytest.raises(ValueError):
        RuntimeConfig(task_slots="many")
    with pytest.raises(ValueError):
        RuntimeConfig(fetch_timeout=0.0)
    with pytest.raises(ValueError):  # a fetch may not eat the io budget
        RuntimeConfig(fetch_timeout=30.0, io_timeout=30.0)
    assert RuntimeConfig(task_slots="auto").resolved_task_slots >= 1
    assert RuntimeConfig(task_slots=3).resolved_task_slots == 3
    opts = RuntimeConfig(io_timeout=12.0, fetch_timeout=2.0) \
        .worker_options()
    assert opts["server_timeout"] == 12.0
    assert opts["fetch_timeout"] == 2.0


# --------------------------------------------------- end-to-end neutrality
@pytest.mark.slow
def test_kill_mid_fetch_recovers(tmp_path):
    """SIGKILL one source while multi-slot reducers are fetching its map
    outputs: the fetch failures surface as task-failed, the death
    is declared, and recovery reproduces the reference checksum — never a
    hang."""
    hooks = KillAt("reduce-dispatch", job=2, victims=[0])
    report = run_process_chain(tmp_path, hooks=hooks, task_slots=2)
    assert report.checksum == reference_checksum(CHAIN)
    assert [n for _, n in report.deaths] == [0]


@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["rcmp", "hybrid"])
@pytest.mark.parametrize("scenario", ["none", "single", "double"])
def test_multi_slot_matrix_parity(tmp_path, strategy, scenario):
    """The checksum matrix with 4 task slots per worker: concurrency in
    the data plane must not change a single byte of any strategy's
    recovered output."""
    triggers = {"none": [],
                "single": [("job-commit", 2, 1)],
                "double": [("job-commit", 1, 1),
                           ("job-commit", 2, 2)]}[scenario]
    hooks = KillPlan(*triggers) if triggers else None
    report = run_process_chain(tmp_path, hooks=hooks, strategy=strategy,
                               task_slots=4)
    assert report.checksum == reference_checksum(CHAIN)
    assert sorted(n for _, n in report.deaths) == \
        sorted(v for _, _, v in triggers)


@pytest.mark.slow
def test_server_split_filter_shrinks_recompute_shuffle(tmp_path):
    """With a 2-way split recomputation, each split reducer is shipped
    its share of the partition, not all of it: the recompute-reduce
    phases pull roughly 1/k of the k x stored-slice bytes an unfiltered
    shuffle would — at the reference checksum."""
    chain = replace(CHAIN, records_per_node=96)
    k = chain.split_ratio
    hooks = KillAt("job-commit", job=2, victims=[1])
    report = run_process_chain(tmp_path, chain=chain, hooks=hooks)
    assert report.checksum == reference_checksum(chain)
    registry = hooks.coord.chain_run.registry
    split = [(job, partition)
             for job, parts in registry.pieces.items()
             for partition, plist in parts.items()
             if any(e.n_splits == k for e in plist)]
    assert split
    stored = sum(
        len(NodeStore(tmp_path / "cluster", entry.node).read_map_slice(
            job, entry.task_id, partition))
        for job, partition in split
        for entry in registry.map_outputs.values() if entry.job == job)
    pulled = sum(n for ledger in (report.shuffle_bytes,
                                  report.shuffle_bytes_local)
                 for phase, n in ledger.items()
                 if phase.startswith("recompute-reduce"))
    assert 0 < pulled <= k * stored * (1 / k) * 1.35


@pytest.mark.slow
def test_transport_timeouts_follow_io_timeout(tmp_path):
    """Satellite regression: the shuffle server/fetch timeouts come from
    RuntimeConfig, not hardcoded constants — a clean run under tight but
    valid budgets still reproduces the reference."""
    report = run_process_chain(tmp_path, io_timeout=20.0,
                               fetch_timeout=2.0)
    assert report.checksum == reference_checksum(CHAIN)


def test_worker_ignores_stale_epoch_commands(tmp_path):
    """A queued command from a cancelled epoch is skipped outright once
    a newer epoch has been seen — no store mutation, no event."""
    worker = _make_worker(tmp_path, node=0)
    try:
        worker.dispatch({"op": "ports", "epoch": 5, "ports": {}})
        worker.dispatch({"op": "drop-job", "job": 1, "epoch": 4})
        assert worker.evt.sent == []
        worker.dispatch({"op": "drop-job", "job": 1, "epoch": 5})
        assert [m[0] for m in worker.evt.sent] == ["job-dropped"]
    finally:
        worker.close()


def _events_until(evt_recv, n, timeout=10.0):
    """The next ``n`` non-heartbeat events off a worker's event pipe."""
    events, t_end = [], time.monotonic() + timeout
    while len(events) < n:
        assert evt_recv.poll(max(0.0, t_end - time.monotonic())), events
        event = evt_recv.recv()
        if event.kind != "hb":
            events.append(event)
    return events


@contextlib.contextmanager
def _piped_worker(tmp_path, **options):
    """``worker_main`` for node 0 on a thread of this process, wired to
    real pipes and ready; yields ``(thread, command send end, event
    receive end)``.  Leaving closes the command pipe, which ends it."""
    cmd_recv, cmd_send = multiprocessing.Pipe(duplex=False)
    evt_recv, evt_send = multiprocessing.Pipe(duplex=False)
    main = threading.Thread(
        target=worker_mod.worker_main, daemon=True,
        args=(0, str(tmp_path), cmd_recv, evt_send, 60.0, 0, 64, 16,
              options))
    main.start()
    try:
        assert _events_until(evt_recv, 1)[0].kind == "ready"
        yield main, cmd_send, evt_recv
    finally:
        cmd_send.close()
        main.join(10.0)
    assert not main.is_alive()


def _send_epoch(cmd_send, epoch, tasks):
    """One epoch's traffic: its ``ports``, then a job-1 map per task."""
    cmd_send.send({"op": "ports", "epoch": epoch, "ports": {}})
    for task in tasks:
        cmd_send.send({"op": "map", "job": 1, "task": task, "origin": None,
                       "n_partitions": 2,
                       "source": ("input", 0, task * 8, 8),
                       "key": ("map", 1, task), "epoch": epoch,
                       "chain": None})


@pytest.mark.parametrize("held_in", ["compute", "commit"])
def test_epoch_bump_cancels_the_queue_through_a_real_pipe(
        tmp_path, monkeypatch, held_in):
    """What a death looks like on the wire: N map commands of epoch E sit
    in the pipe behind a running one, then ``ports`` of E+1 and a command
    of E+1 arrive.  The intake hears E+1 while the first task still runs,
    so the queued ones answer ``cancelled`` without running; the one in
    flight aborts if it has not reached its store write (no section, no
    ``map-done``) and commits if it already has; the
    E+1 command runs.  (One slot: before the intake, all N ran first.)"""
    n, epoch = 5, 3
    entered, release, heard = (threading.Event() for _ in range(3))

    def hold_first(real):
        def held(*args):
            if not entered.is_set():
                entered.set()
                assert release.wait(10.0)
            return real(*args)
        return held

    if held_in == "compute":
        monkeypatch.setattr(worker_mod, "map_batch",
                            hold_first(worker_mod.map_batch))
    else:
        monkeypatch.setattr(NodeStore, "write_map_slices",
                            hold_first(NodeStore.write_map_slices))
    real_hear = _Worker.hear

    def hear(self, seen):
        real_hear(self, seen)
        if seen == epoch + 1:
            heard.set()

    monkeypatch.setattr(_Worker, "hear", hear)

    committed = [0] if held_in == "commit" else []
    try:
        with _piped_worker(tmp_path) as (_, cmd_send, evt_recv):
            _send_epoch(cmd_send, epoch, range(n))
            assert entered.wait(10.0)  # task 0 in flight, 1..n-1 queued
            _send_epoch(cmd_send, epoch + 1, [n])
            assert heard.wait(10.0)
            release.set()
            events = _events_until(evt_recv, n + 1)
    finally:
        release.set()
    assert [(e.key[2], e.epoch) for e in events
            if e.kind == "map-done"] == \
        [(t, epoch) for t in committed] + [(n, epoch + 1)]
    assert [(e.key[2], e.epoch, e.result) for e in events
            if e.kind == "task-failed"] == \
        [(t, epoch, "cancelled") for t in range(n) if t not in committed]
    store = NodeStore(tmp_path, 0)
    files = sorted(p for p in store.root.rglob("*") if p.is_file())
    assert files == [store.map_segment_path(1)]
    # one section per committed task and not a byte more: a cancelled
    # task appended nothing, not even a section a later one supersedes
    data, sections, pos = files[0].read_bytes(), [], 0
    while pos < len(data):
        body, task = struct.unpack_from(">Qq", data, pos)
        sections.append(task)
        pos += 16 + body
    assert pos == len(data) and sections == committed + [n]
    assert sorted(scan_map_segment(files[0])) == sorted(sections)


def test_map_done_is_never_sent_before_the_sections_fsync_returned(
        tmp_path, monkeypatch):
    """Commit after durable, on the wire: while a map task's fsync is
    held the worker stays silent; ``map-done`` follows its return."""
    entered, release = threading.Event(), threading.Event()
    real_fsync = os.fsync

    def held(fd):
        entered.set()
        assert release.wait(10.0)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", held)
    try:
        with _piped_worker(tmp_path) as (_, cmd_send, evt_recv):
            _send_epoch(cmd_send, 0, [0])
            assert entered.wait(10.0)
            t_end = time.monotonic() + 0.2
            while evt_recv.poll(max(0.0, t_end - time.monotonic())):
                assert evt_recv.recv().kind == "hb"
            release.set()
            assert _events_until(evt_recv, 1)[0].kind == "map-done"
    finally:
        release.set()


def test_respawned_worker_appends_behind_the_dead_incarnations_sections(
        tmp_path):
    """A ``--replace-dead`` replacement works in the dead incarnation's
    directory: its segment is still there, torn tail and all.  The new
    worker cuts the tail off, appends behind the complete sections, and
    a recomputed task's later section wins — every slice equals what one
    uninterrupted worker writes."""
    def run(root, tasks):
        with _piped_worker(root) as (_, cmd_send, evt_recv):
            _send_epoch(cmd_send, 0, tasks)
            assert [e.kind for e in _events_until(evt_recv, len(tasks))] \
                == ["map-done"] * len(tasks)

    run(tmp_path / "ref", [0, 1, 2])
    run(tmp_path / "svc", [0, 1])  # the incarnation that dies
    segment = NodeStore(tmp_path / "svc", 0).map_segment_path(1)
    whole = segment.stat().st_size
    with open(segment, "ab") as fh:  # ... mid-append
        fh.write(struct.pack(">Qq", 4096, 2) + b"half a section")
    run(tmp_path / "svc", [1, 2])   # its replacement
    assert sorted(scan_map_segment(segment)) == [0, 1, 2]
    assert segment.stat().st_size > whole + 30
    ref, respawned = (NodeStore(tmp_path / name, 0)
                      for name in ("ref", "svc"))
    for task in range(3):
        for partition in range(2):
            data = respawned.read_map_slice(1, task, partition)
            assert data and data == ref.read_map_slice(1, task, partition)


def test_epoch_stream_answers_every_task_once_and_in_epoch_order(tmp_path):
    """Stress on the state the intake shares with the slot threads: six
    epochs of map commands streamed through a real pipe into a 3-slot
    worker, thread switches forced every 10 us.  Every task is answered
    exactly once (committed or ``cancelled``), nothing of an older epoch
    commits after a newer epoch's first completion (the drain), and the
    last epoch — never superseded — commits in full."""
    epochs, per_epoch = 6, 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _piped_worker(tmp_path, task_slots=3) as (_, cmd_send,
                                                       evt_recv):
            for epoch in range(epochs):
                _send_epoch(cmd_send, epoch, range(per_epoch))
            events = _events_until(evt_recv, epochs * per_epoch,
                                   timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert sorted((e.epoch, e.key[2]) for e in events) == \
        [(epoch, task) for epoch in range(epochs)
         for task in range(per_epoch)]
    assert all(e.kind == "map-done" or (e.kind, e.result) ==
               ("task-failed", "cancelled") for e in events)
    done = [e.epoch for e in events if e.kind == "map-done"]
    assert done == sorted(done)
    assert done.count(epochs - 1) == per_epoch


# ------------------------------------- compute as a run, commit as tasks
def _map_commands(tasks, rows, epoch=0):
    """Job-1 map commands over consecutive ``rows``-row input blocks."""
    return [{"op": "map", "job": 1, "task": task, "origin": None,
             "n_partitions": 2, "source": ("input", 0, task * rows, rows),
             "key": ("map", 1, task), "epoch": epoch, "chain": None}
            for task in tasks]


def _run_worker(root, rows, n_tasks):
    store = NodeStore(root, 0)
    return _Worker(0, store, _EventSink(), seed=3,
                   records_per_node=rows * n_tasks, value_size=16)


def _dispatch_as_one_run(worker, cmds):
    """What the command loop does when ``cmds`` have all arrived."""
    pending = collections.deque(cmds[1:])
    worker.dispatch(cmds[0], pending)
    assert not pending


# 8-row blocks digest on the ``hashlib`` loop alone and as a run; 1500-row
# blocks enter the kernel either way, the run in passes of several blocks
@pytest.mark.parametrize("rows", [8, 1500])
@pytest.mark.parametrize("task_slots", [1, 2])
def test_a_run_of_map_commands_commits_what_single_tasks_commit(
        tmp_path, monkeypatch, rows, task_slots):
    """N queued map commands computed as one run leave the segment N
    single-task executions leave, byte for byte, and answer N
    ``map-done`` events in task order with the same per-task results."""
    n, passes = 7, []
    real = worker_mod.map_batch
    monkeypatch.setattr(worker_mod, "map_batch", lambda keys, *rest: (
        passes.append(len(keys)), real(keys, *rest))[1])
    results = {}
    for name in ("single", "run"):
        store = NodeStore(tmp_path / name, 0)
        worker = _Worker(0, store, _EventSink(), seed=3,
                         records_per_node=rows * n, value_size=16,
                         options={"task_slots": task_slots})
        try:
            cmds = _map_commands(range(n), rows)
            if name == "run":
                _dispatch_as_one_run(worker, cmds)
            else:
                for cmd in cmds:
                    worker.dispatch(cmd)
            if worker._slots is not None:
                worker._slots.drain()
            events = sorted(worker.evt.sent, key=lambda e: e.key) \
                if name == "single" else worker.evt.sent
            assert [(e.kind, e.key) for e in events] == \
                [("map-done", ("map", 1, task)) for task in range(n)]
            results[name] = ([e.result for e in events],
                             store.map_segment_path(1).read_bytes()
                             if task_slots == 1 else
                             [store.read_map_slice(1, task, partition)
                              for task in range(n) for partition in (0, 1)])
        finally:
            worker.close()
    assert results["run"] == results["single"]
    # the singles ran the UDF once a task; the run once
    assert passes == [rows] * n + [rows * n]


def test_an_epoch_bump_inside_a_run_stops_it_within_one_pass(
        tmp_path, monkeypatch):
    """A newer epoch heard while a run's pass is under way: the pass does
    not start another kernel chunk, nothing is written, and every task of
    the run answers ``cancelled`` on its own."""
    n, rows, calls = 4, md5_mod._CHUNK, []
    worker = _run_worker(tmp_path, rows, n)
    real = md5_mod._compress

    def bump_then_compress(n_rows, words):
        calls.append(n_rows)
        worker.hear(1)
        return real(n_rows, words)

    try:
        worker._input_block(None, 0, 0, 1)  # generated before the spy
        monkeypatch.setattr(md5_mod, "_compress", bump_then_compress)
        _dispatch_as_one_run(worker, _map_commands(range(n), rows))
        # one kernel pass of the key digest's four, then the check: not
        # the other three, and none of the value digest's
        assert calls == [rows]
        assert [(e.kind, e.key[2], e.result) for e in worker.evt.sent] == \
            [("task-failed", task, "cancelled") for task in range(n)]
        assert not worker.store.map_segment_path(1).exists()
    finally:
        worker.close()


def test_an_epoch_bump_between_commits_of_a_run_commits_nothing_further(
        tmp_path, monkeypatch):
    """The run is mapped; the bump lands while its tasks commit one by
    one: each re-checks right before its own store write, so the tasks
    already durable answer ``map-done`` and the rest ``cancelled`` — and
    the mapped-ahead columns go with the run."""
    n, durable = 5, 2
    worker = _run_worker(tmp_path, 8, n)
    real = NodeStore.write_map_slices

    def write_then_bump(store, job, task, *rest):
        counts = real(store, job, task, *rest)
        if task == durable - 1:
            worker.hear(1)
        return counts

    monkeypatch.setattr(NodeStore, "write_map_slices", write_then_bump)
    try:
        _dispatch_as_one_run(worker, _map_commands(range(n), 8))
        assert [(e.kind, e.key[2]) for e in worker.evt.sent] == \
            [("map-done", task) for task in range(durable)] + \
            [("task-failed", task) for task in range(durable, n)]
        assert sorted(scan_map_segment(
            worker.store.map_segment_path(1))) == list(range(durable))
    finally:
        worker.close()


def test_a_fetch_error_on_a_looked_ahead_block_fails_only_its_task(
        tmp_path, monkeypatch):
    n, lost = 4, 2
    worker = _run_worker(tmp_path, 8, n)
    real = _Worker._block_columns

    def block_columns(self, cmd, *rest):
        if cmd["task"] == lost:
            raise FetchError("source 7 is gone")
        return real(self, cmd, *rest)

    monkeypatch.setattr(_Worker, "_block_columns", block_columns)
    try:
        _dispatch_as_one_run(worker, _map_commands(range(n), 8))
        assert [(e.kind, e.key[2]) for e in worker.evt.sent] == \
            [("task-failed" if task == lost else "map-done", task)
             for task in range(n)]
        assert worker.evt.sent[lost].result == "source 7 is gone"
        assert sorted(scan_map_segment(
            worker.store.map_segment_path(1))) == [0, 1, 3]
    finally:
        worker.close()


def test_a_run_ends_where_chain_job_or_epoch_change(tmp_path, monkeypatch):
    """Only contiguous map commands of one chain, job and epoch compute
    together; whatever follows stays queued for the command loop."""
    worker = _run_worker(tmp_path, 8, 8)
    runs = []
    monkeypatch.setattr(worker, "execute_run",
                        lambda run: runs.append([c["task"] for c in run]))
    try:
        cmds = _map_commands(range(8), 8)
        for cmd in cmds[2:]:
            cmd["job"] = 2
        for cmd in cmds[4:]:
            cmd["epoch"] = 1
        cmds[5]["chain"] = "c0001"
        cmds[7]["op"] = "reduce"
        pending = collections.deque(cmds)
        while pending:
            worker.dispatch(pending.popleft(), pending)
        assert runs == [[0, 1], [2, 3], [4], [5], [6], [7]]
    finally:
        worker.close()


def test_stop_and_a_closed_command_pipe_both_end_the_worker(tmp_path):
    """``stop`` ends the loop; the coordinator vanishing reads the same:
    the intake turns the closed pipe into the command that ends it."""
    with _piped_worker(tmp_path / "a") as (main, cmd_send, _):
        cmd_send.send({"op": "stop"})
        main.join(10.0)
        assert not main.is_alive()
    with _piped_worker(tmp_path / "b"):
        pass  # leaving closes the pipe and asserts the thread ended


def test_keyless_command_is_still_answered(tmp_path):
    """A bare command without ``key`` (what the benchmark spine's
    dispatch round-trip sends) gets its completion event, key ``None``."""
    worker = _make_worker(tmp_path, node=0)
    try:
        worker.dispatch({"op": "drop", "job": 0, "task": 0, "epoch": 0,
                         "chain": None})
        [event] = worker.evt.sent
        assert event[0] == "dropped" and event.kind == "dropped"
        assert event.key is None and event.epoch == 0
    finally:
        worker.close()
