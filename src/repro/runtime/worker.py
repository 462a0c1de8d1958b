"""The worker process: executes tasks against its node-local store.

One worker per simulated node.  A small **command intake** thread does
nothing but read the command pipe: it notes the newest dispatch epoch it
has seen on the wire and hands the commands, in arrival order, to the
main thread through a queue.  The main thread is the executor: it runs
the commands serially — one run at a time, the paper's one map slot and
one reduce slot per node.  It executes on the main thread on purpose: on
another thread the numpy buffers land in a second malloc arena (+1.8 MB
peak RSS per worker, measured), while the intake allocates nothing but
unpickled command dicts.

The unit of compute and of durability is a *run*, the unit of
registration and reply a *task*.  The coordinator sends a node's share of
a batch as one message, so the map commands of one chain, job and epoch
arrive together and the first takes the rest with it.  The map UDF runs
over all their rows at once — the epoch re-checked before every pass of
the MD5 kernel, about every 16 384 rows — because the batch kernel's
cost is per call and one 3 000-row block pays it for too few rows; the
mapped columns are partitioned by one sort and one encode; each task's
section is appended, its epoch re-checked right before (a cancelled task
appends nothing); one fsync makes the run durable, and only then does
every task answer, in task order: ``map-done``, or ``task-failed`` for a
block that could not be fetched or a task the epoch cancelled.  A run
reads its blocks as *segments*, contiguous rows of one source: the
node's own chain input is generated once over the run's blocks and
mapped where it lies, without a concatenated copy, and a stored piece
is read once however many of its blocks the run maps.  What the run
read and mapped lives no longer than the run; nothing of a chain is
kept between runs.  A task keeps its data as columns — ``keys:
uint64[n]`` plus an ``n x L`` value matrix — from the moment a block's
or a shuffle response's bytes are decoded
(:func:`~repro.runtime.storage.decode_columns`) to the moment the output
frames are written: map and reduce are the batch UDFs of
:mod:`repro.localexec.records`, defined as byte-for-byte what the
paper's per-record UDFs yield row by row, so the bytes a worker persists
are identical to what the in-process backend — which runs the per-record
UDFs, and shares no code with this path — computes for the same task.

A worker never talks to another worker except through the shuffle:
reduce tasks fetch map-output slices from the mapper nodes' shuffle
servers (local slices are read straight from disk), and a re-homed
mapper fetches its input piece range the same way.  A task fetches one
source node after another over
:class:`~repro.runtime.transport.PeerPool`'s persistent connections and
groups everything that landed by one sort of the key column — not a
stable one, as no output byte depends on the order of equal keys (a
fetcher thread pool was judged against this loop and tied: EXPERIMENTS.md
"Data-plane options, judged").  When a fetch fails because the
source died, the worker reports ``task-failed`` and returns to its loop;
the coordinator's heartbeat expiry declares the death and re-plans.

Epoch hygiene: the coordinator bumps the dispatch epoch on every death,
puts the new epoch on every survivor's wire at once and discards stale
results.  Because the intake hears the bump while the executor is still
busy, one rule cancels: a command older than the newest epoch on the
wire is skipped when it is picked up — the whole queued share of a
cancelled map phase falls through in microseconds — and the run *in
flight* re-checks right before its store write (before each kernel pass
and each task's section) and does not commit (no fsync'd bytes, no
``*-done`` event).  A run already past its last check commits whole:
the one run in flight is what a bump can come too late for.
A skipped or aborted task answers ``task-failed`` / ``"cancelled"`` so a
speculative race waiting on it settles; drops and reclaims of a
cancelled epoch stay silent.  As runs execute one after another, recovery
work never interleaves with a cancelled epoch's stragglers on the same
disk.
"""

from __future__ import annotations

import collections
import os
import queue
import threading
import time
import traceback
from typing import Callable, Optional

import numpy as np

from repro.localexec.records import generate_batch, map_batch, reduce_batch
from repro.runtime import protocol, transport
from repro.runtime.storage import (
    FRAME_HEADER,
    MemoryTier,
    NodeStore,
    decode_columns,
    encode_columns,
    filter_split,
    partition_run,
)

#: multiprocessing.Process target — keep the signature pickle-friendly
#: so a spawn start method works where fork is unavailable.

#: data-plane defaults, overridden per run by ``RuntimeConfig``
DEFAULT_OPTIONS = {
    "fetch_timeout": 5.0,
    "server_timeout": 30.0,
    "memory_budget": 0,  # memory-tier bytes per worker; 0 disables
}


def worker_main(node: int, root: str, cmd_conn, evt_conn,
                heartbeat_interval: float,
                options: Optional[dict] = None) -> None:
    opts = dict(DEFAULT_OPTIONS)
    opts.update(options or {})
    budget = int(opts["memory_budget"])
    memory = MemoryTier(budget) if budget > 0 else None
    store = NodeStore(root, node, memory=memory)
    evt = transport.LockedConnection(evt_conn)
    # one throttle shared by the executor and the shuffle server: a
    # "slow" fault paces both, while the heartbeat thread keeps beating
    throttle = transport.Throttle()
    server = transport.ShuffleServer(store, timeout=opts["server_timeout"],
                                     throttle=throttle)
    transport.start_heartbeat(evt, node, heartbeat_interval)
    evt.send(protocol.ready(node, server.port, os.getpid()))
    worker = _Worker(node, store, evt, opts, throttle=throttle)
    commands: queue.SimpleQueue = queue.SimpleQueue()
    threading.Thread(target=_intake, args=(cmd_conn, worker, commands),
                     name="intake", daemon=True).start()
    pending: collections.deque = collections.deque()
    try:
        while True:
            if not pending:
                pending.extend(commands.get())
            while not commands.empty():  # a map looks ahead in the arrived
                pending.extend(commands.get_nowait())
            cmd = pending.popleft()
            if cmd["op"] == "stop":
                break
            worker.dispatch(cmd, pending)
    finally:
        server.close()
        worker.close()


def _intake(cmd_conn, worker: "_Worker", commands) -> None:
    """The command intake thread: read the pipe — a message is one
    command or a node's share of a batch, a list — note the newest epoch
    on the wire, hand the commands over in arrival order, a message as
    one item.  A closed pipe (the coordinator is gone) ends the worker
    like a ``stop``."""
    while True:
        try:
            message = cmd_conn.recv()
        except transport.CHANNEL_DOWN:
            message = {"op": "stop"}
        cmds = message if isinstance(message, list) else [message]
        for cmd in cmds:
            worker.hear(cmd.get("epoch"))
        commands.put(cmds)
        if any(cmd["op"] == "stop" for cmd in cmds):
            return


class _Cancelled(Exception):
    """A newer epoch is on the wire: the command's result is moot."""


class _Worker:
    """Task execution against one node's store."""

    def __init__(self, node: int, store: NodeStore,
                 evt: transport.LockedConnection,
                 options: Optional[dict] = None,
                 throttle: Optional[transport.Throttle] = None):
        opts = dict(DEFAULT_OPTIONS)
        opts.update(options or {})
        self.node = node
        self.pid = os.getpid()
        self.throttle = throttle or transport.Throttle()
        self.store = store
        self.evt = evt
        self._stores: dict = {None: store, store.chain: store}
        self.pool = transport.PeerPool(timeout=opts["fetch_timeout"])
        self._ports: dict[int, int] = {}
        self._wire_epoch = -1  # newest epoch the intake saw

    def close(self) -> None:
        self.pool.close()
        self.store.close()

    # -- command routing -------------------------------------------------
    def hear(self, epoch: Optional[int]) -> None:
        """Note an epoch seen on the wire.  The intake thread calls this
        ahead of the command loop; the value only grows, so the loop's
        own call in :meth:`dispatch` is a no-op behind it."""
        if epoch is not None and epoch > self._wire_epoch:
            self._wire_epoch = epoch

    def _check_epoch(self, cmd: dict) -> None:
        """The one stale rule: a command older than the newest epoch on
        the wire is cancelled — when it is picked up, and once more right
        before its store write."""
        if cmd.get("epoch", self._wire_epoch) < self._wire_epoch:
            raise _Cancelled

    def dispatch(self, cmd: dict,
                 pending: collections.deque | tuple = ()) -> None:
        """Route one command from the pipe (main loop thread only); a map
        command takes the rest of its run off ``pending``, the commands
        that arrived behind it."""
        self.hear(cmd.get("epoch"))
        if cmd["op"] == "ports":
            # epoch-cached peer port map: sent once per epoch instead of
            # riding on every task command
            self._ports = dict(cmd["ports"])
            return
        if cmd["op"] == "throttle":
            # a "slow" fault landing: every task and shuffle response
            # from here on runs at 1/factor speed
            self.throttle.set(cmd["factor"])
            return
        if cmd["op"] == "chain-close":
            # drop the finished chain's store view — the coordinator
            # side has already read the final output — then close and
            # sweep its namespace's segments, sparing the reduce jobs the
            # cross-run cache registered.  Fire-and-forget: there is no
            # event stream left to report on, and a filesystem race must
            # not take down the command loop.
            chain = cmd["chain"]
            self._stores.pop(chain, None)
            try:
                self.store.for_chain(chain).sweep_chain(cmd.get("keep", ()))
            except OSError:
                pass
            return
        run = [cmd]
        while cmd["op"] == "map" and pending and all(
                pending[0].get(field) == cmd.get(field)
                for field in ("op", "chain", "job", "epoch")):
            run.append(pending.popleft())
        self.execute_run(run)

    def execute_run(self, run: list) -> None:
        """Execute one unit of compute and commit: a run of map commands
        of one chain, job and epoch, or a lone command."""
        if run[0]["op"] == "map":
            self._map_run(run)
        else:
            self.execute(run[0])

    def execute(self, cmd: dict) -> None:
        op = cmd.get("op")
        chain = cmd.get("chain")
        try:
            self._check_epoch(cmd)
            store = self._store(chain)
            if op == "reduce":
                self._reduce(cmd, chain, store)
            elif op == "replicate":
                self._replicate(cmd, chain, store)
            elif op == "drop":
                store.drop_map_output(cmd["job"], cmd["task"])
                self._done(cmd)
            elif op == "drop-piece":
                # sweep one losing speculative attempt's reduce output
                self._done(cmd, store.drop_piece(
                    cmd["job"], cmd["partition"], cmd["split"],
                    cmd["n_splits"]))
            elif op == "drop-job":
                self._done(cmd, store.drop_job(cmd["job"]))
            elif op == "reclaim":
                # the shielded DAG cut behind the anchor frontier (need
                # not be an index prefix)
                map_jobs = set(cmd["map_jobs"])
                piece_jobs = set(cmd["piece_jobs"])
                self._done(cmd, store.reclaim_job_sets(map_jobs,
                                                       piece_jobs))
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as exc:
            self._fail(cmd, exc)

    def _fail(self, cmd: dict, exc: Exception) -> None:
        """Answer a command that did not commit."""
        if isinstance(exc, _Cancelled):
            # skipped in the queue or aborted before its commit: nothing
            # was written.  A task still answers, so a speculative race
            # waiting on this attempt settles; drops and reclaims of a
            # cancelled epoch stay silent
            if cmd.get("op") in protocol.TASK_OPS:
                self.evt.send(protocol.reply("task-failed", self.node, cmd,
                                             self.pid, "cancelled"))
        elif isinstance(exc, transport.FetchError):
            self.evt.send(protocol.reply("task-failed", self.node, cmd,
                                         self.pid, str(exc)))
        else:
            # a software bug, not a fetch casualty: stay alive and hand
            # the coordinator the traceback, so a deterministic error
            # surfaces as a diagnostic instead of reading as a node
            # death and cascading through recovery
            self.evt.send(protocol.reply(
                "task-error", self.node, cmd, self.pid,
                "".join(traceback.format_exception(exc))))

    def _done(self, cmd: dict, result=None, fetched: int = 0,
              local: int = 0) -> None:
        """Report ``cmd`` complete, echoing its key/epoch/chain."""
        self.evt.send(protocol.reply(protocol.DONE[cmd["op"]], self.node,
                                     cmd, self.pid, result, fetched, local))

    def _store(self, chain) -> NodeStore:
        """The chain-namespaced store for one command (cached)."""
        store = self._stores.get(chain)
        if store is None:
            store = self._stores[chain] = self.store.for_chain(chain)
        return store

    # -- input ----------------------------------------------------------
    def _segment_columns(self, cmd: dict, source: tuple, lo: int, hi: int,
                         chain, store: NodeStore, pieces: dict,
                         tick: Callable[[], None]) -> tuple:
        """Rows ``lo..hi`` of one source as ``(keys, values, bytes fetched
        over TCP)``.  Chain input is a pure function of the chain's
        ``(seed, records_per_node, value_size)``, which the map command
        carries as ``input`` (the paper's randomly generated binary
        data), so any node generates any range — its own blocks or a
        re-homed one's — with no fetch and no state kept between runs.
        A stored piece is read once per run (``pieces`` holds it for the
        run's other segments): this node's from its store — a
        cache-adopted one from its donor chain's namespace — another
        node's over that node's shuffle server."""
        if source[0] == "input":
            seed, _, value_size = cmd["input"]
            return (*generate_batch(hi - lo, seed * 1000 + source[1],
                                    value_size, start=lo, tick=tick), 0)
        fetched = 0
        data = pieces.get(source)
        if data is None:
            _, job, partition, split_index, n_splits, node, *donor = source
            # a cache-adopted piece names its donor chain's namespace
            # (an 8-element block source: the task's own chain)
            src_chain = donor[0] if donor else None
            if node == self.node:
                read_store = store if src_chain is None \
                    else self._store(src_chain)
                data = read_store.read_piece(job, partition, split_index,
                                             n_splits)
            else:
                data = self.pool.fetch_piece(
                    self._ports[node], job, partition, split_index,
                    n_splits,
                    chain=src_chain if src_chain is not None else chain)
                fetched = len(data)
            pieces[source] = data
        return (*decode_columns(data, lo, hi - lo), fetched)

    # -- shuffle fetch ---------------------------------------------------
    def _fetch_merge(self, requests: list[tuple[int, dict]],
                     ports: dict[int, int],
                     merge: Callable[[int, bytes], None]) -> int:
        """Fetch from one source node after another over the persistent
        connections and merge each response as it lands.  Returns total
        bytes fetched; a dead source raises
        :class:`transport.FetchError` out of the pool's bounded retries,
        so the task fails instead of hanging."""
        total = 0
        for node, request in requests:
            data = self.pool.fetch(ports[node], request)
            total += len(data)
            merge(node, data)
        return total

    # -- tasks -----------------------------------------------------------
    def _map_run(self, run: list) -> None:
        """A run of map commands as one unit of compute and commit:
        resolve the run's segments, map each pass's rows — one pass per
        value shape, a lone segment where it lies — and partition the
        mapped columns with one sort and one encode; then append a
        section per task, its epoch re-checked right before, commit them
        all with one fsync, and answer every task in task order.  A
        segment that cannot be read fails only its own tasks; a task the
        epoch cancelled appends nothing."""
        cpu = time.thread_time()
        chain, job = run[0].get("chain"), run[0]["job"]
        failed: dict[int, Exception] = {}   # task index -> its answer
        traffic: dict[int, tuple] = {}      # -> (bytes fetched, local)
        counts: dict[int, dict] = {}        # -> committed record counts

        def tick() -> None:
            # the epoch re-checked before every pass of the MD5 kernel,
            # so a cancelled run stops within one
            self._check_epoch(run[0])

        try:
            tick()
            store = self._store(chain)
            pieces: dict = {}  # source -> piece bytes, read once a run
            #: value shape -> [(keys, values, task indexes, their rows)]
            passes: dict = {}
            for source, lo, hi, members in _segments(run):
                try:
                    keys, values, fetched = self._segment_columns(
                        run[members[0]], source, lo, hi, chain, store,
                        pieces, tick)
                except _Cancelled:
                    raise
                except Exception as exc:
                    failed.update(dict.fromkeys(members, exc))
                    continue
                local = source[0] == "piece" and source[5] == self.node
                sizes = []
                for i in members:
                    _, start, count = _span(run[i]["source"])
                    rows, frames = _block_rows(values, start - lo, count)
                    sizes.append(rows)
                    # a local block shares the run's one read of the
                    # piece: only the frames it maps count as read
                    traffic[i] = (fetched if i == members[0] else 0,
                                  frames if local else 0)
                passes.setdefault(values.shape[1:], []).append(
                    (keys, values, members, sizes))
            pieces.clear()
            slices: dict = {}
            while passes:
                parts = passes.popitem()[1]
                members = [i for part in parts for i in part[2]]
                sizes = [n for part in parts for n in part[3]]
                keys, values = (parts[0][column] if len(parts) == 1
                                else np.concatenate([part[column]
                                                     for part in parts])
                                for column in (0, 1))
                # a concatenated pass lets the pieces it was cut from go
                del parts
                keys, values = map_batch(keys, values, job, tick)
                slices.update(zip(members, partition_run(
                    keys, values, run[0]["n_partitions"], sizes)))
                # the mapped columns go before the commit: the memory tier
                # copies the slices out of the run's one frame buffer
                del keys, values

            def sections():
                for i in sorted(slices):
                    try:
                        self._check_epoch(run[i])
                    except _Cancelled:
                        return  # it and every later task: not a byte
                    yield run[i]["task"], run[i]["origin"], slices[i]

            # a slow node's run is stretched before its commit, so an
            # epoch bump heard meanwhile still cancels it
            self.throttle.pace(time.thread_time() - cpu)
            committed = set(store.write_map_run(job, sections()))
            counts.update((i, {p: n for p, (n, _) in slices[i].items()})
                          for i in slices if run[i]["task"] in committed)
        except Exception as exc:
            for i in range(len(run)):
                failed.setdefault(i, exc)
        for i, cmd in enumerate(run):
            if i in counts:
                self._done(cmd, counts[i], *traffic[i])
            else:
                self._fail(cmd, failed.get(i, _Cancelled()))

    def _reduce(self, cmd: dict, chain, store: NodeStore) -> None:
        cpu = time.thread_time()
        job, partition = cmd["job"], cmd["partition"]
        split_index, n_splits = cmd["split"], cmd["n_splits"]
        by_node: dict[int, list[int]] = {}
        for task_id, node in cmd["sources"]:
            by_node.setdefault(node, []).append(task_id)
        landed: list[bytes] = []

        # a split reducer only ever sees its 1/k of a slice: peers filter
        # server-side, own-store slices are filtered here, so
        # local bytes (whatever landed without a socket) mirror what the
        # TCP path would have shipped and tcp + local is comparable
        # across node placements
        requests = []
        for node, tasks in sorted(by_node.items()):
            if node == self.node:
                continue
            request = {"kind": "maps", "job": job, "tasks": tasks,
                       "partition": partition}
            if chain is not None:
                request["chain"] = chain
            if n_splits > 1:
                request["split"] = split_index
                request["n_splits"] = n_splits
            requests.append((node, request))
        fetched = self._fetch_merge(requests, self._ports,
                                    lambda _node, data: landed.append(data))
        if self.node in by_node:  # local slices never touch the network
            landed.append(filter_split(b"".join(
                store.read_map_slice(job, task_id, partition)
                for task_id in by_node[self.node]), split_index, n_splits))
        data = b"".join(landed)
        keys, values = reduce_batch(*decode_columns(data))
        self.throttle.pace(time.thread_time() - cpu)
        self._check_epoch(cmd)
        store.write_piece_bytes(job, partition, split_index, n_splits,
                                encode_columns(keys, values))
        self._done(cmd, len(keys), fetched, len(data) - fetched)

    def _replicate(self, cmd: dict, chain, store: NodeStore) -> None:
        """Copy one stored piece from its primary holder to this node's
        disk (REPL-k / hybrid anchors): fetch the encoded bytes over the
        shuffle transport and commit them as the same fsync'd section
        append as a locally computed piece — a SIGKILL mid-copy leaves a
        torn tail no scan reads, never a torn committed replica."""
        job, partition = cmd["job"], cmd["partition"]
        split_index, n_splits = cmd["split"], cmd["n_splits"]
        source = cmd["source"]
        if source == self.node:
            raise ValueError(f"node {self.node} asked to replicate its "
                             f"own piece")
        started = time.perf_counter()
        # an adopted piece's primary lives in a donor chain's namespace;
        # the copy is always committed into this chain's own
        src_chain = cmd.get("source_chain")
        piece_chain = src_chain if src_chain is not None else chain
        data = self.pool.fetch_piece(
            self._ports[source], job, partition, split_index, n_splits,
            chain=piece_chain)
        self.throttle.pace(time.perf_counter() - started)
        self._check_epoch(cmd)
        store.write_piece_bytes(job, partition, split_index, n_splits,
                                data)
        self._done(cmd, None, len(data))


def _segments(run: list) -> list[list]:
    """A run's blocks as *segments*, maximal stretches of consecutive
    blocks over contiguous rows of one source: ``[source, first row, end
    row, [task index, ...]]``."""
    segments: list[list] = []
    for i, cmd in enumerate(run):
        source, start, count = _span(cmd["source"])
        last = segments[-1] if segments else None
        if last is not None and last[0] == source and last[2] == start:
            last[2] += count
            last[3].append(i)
        else:
            segments.append([source, start, start + count, [i]])
    return segments


def _span(source: tuple) -> tuple:
    """A map block's source as ``(what it reads, first row, row
    count)``: ``("input", node)`` for a node's chain input, the piece
    tuple less its row range for a stored piece."""
    if source[0] == "input":
        return source[:2], source[2], source[3]
    return source[:6] + source[8:], source[6], source[7]


def _block_rows(values: np.ndarray, offset: int, count: int
                ) -> tuple[int, int]:
    """A block's rows within its segment's value column: how many, and
    the bytes their frames take."""
    rows = values[offset:offset + count]
    return len(rows), len(rows) * FRAME_HEADER + (
        rows.size if rows.ndim == 2 else sum(map(len, rows)))
