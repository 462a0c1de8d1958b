"""The worker process: executes tasks against its node-local store.

One worker per simulated node.  A small **command intake** thread does
nothing but read the command pipe: it notes the newest dispatch epoch it
has seen on the wire and hands the commands, in arrival order, to the
main thread through a queue.  The main thread is the executor: with
``task_slots == 1`` (the default) it runs the commands serially —
exactly one task at a time, the classic single-slot node — and with
``task_slots > 1`` it feeds a small pool of slot threads so one worker
process keeps several tasks in flight (the paper's surviving
parallelism, exploited *within* a node).  Single-slot execution stays on
the main thread on purpose: on a slot thread the numpy buffers land in a
second malloc arena (+1.8 MB peak RSS per worker, measured), while the
intake allocates nothing but unpickled command dicts.

The unit of *compute* is a run, the unit of *commit* a task: a map
command takes with it the map commands of the same chain, job and epoch
queued right behind it, and the map UDF runs over all their rows at once
— the epoch re-checked before every pass of the MD5 kernel, about every
8 192 rows — because the batch kernel's cost is per call and one
3 000-row block pays it for too few rows.  Then every
task partitions its own rows, re-checks its epoch, appends and fsyncs its
own section and sends its own ``map-done``; a block that cannot be
fetched fails its own task; the mapped-ahead columns live no longer than
the run (one slot's, with ``task_slots > 1``).  A task keeps its
data as columns — ``keys: uint64[n]`` plus an ``n x L`` value matrix —
from the moment a block's or a shuffle response's bytes are decoded
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
groups everything that landed by one stable sort of the key column (a
fetcher thread pool was judged against this loop and tied: EXPERIMENTS.md
"Data-plane options, judged").  When a fetch fails because the
source died, the worker reports ``task-failed`` and returns to its loop;
the coordinator's heartbeat expiry declares the death and re-plans.

Epoch hygiene: the coordinator bumps the dispatch epoch on every death,
puts the new epoch on every survivor's wire at once and discards stale
results.  Because the intake hears the bump while the executor is still
busy, one rule cancels in both slot modes: a command older than the
newest epoch on the wire is skipped when it is picked up — the whole
queued share of a cancelled map phase falls through in microseconds —
and the task *in flight* re-checks once right before its store write (a
run of map tasks also before each kernel pass) and does not commit (no
fsync'd bytes, no ``*-done`` event).
A skipped or aborted task answers ``task-failed`` / ``"cancelled"`` so a
speculative race waiting on it settles; drops and reclaims of a
cancelled epoch stay silent.  Before running the first command of a new
epoch the command loop drains the slot pool, so recovery work never
interleaves with a cancelled epoch's stragglers on the same disk.
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
    partition_columns,
)

#: multiprocessing.Process target — keep the signature pickle-friendly
#: so a spawn start method works where fork is unavailable.

#: data-plane defaults, overridden per run by ``RuntimeConfig``
DEFAULT_OPTIONS = {
    "task_slots": 1,
    "fetch_timeout": 5.0,
    "server_timeout": 30.0,
    "memory_budget": 64 << 20,  # hot-tier bytes per worker; 0 disables
}


def worker_main(node: int, root: str, cmd_conn, evt_conn,
                heartbeat_interval: float, seed: int,
                records_per_node: int, value_size: int,
                options: Optional[dict] = None) -> None:
    opts = dict(DEFAULT_OPTIONS)
    opts.update(options or {})
    budget = int(opts["memory_budget"])
    memory = MemoryTier(budget) if budget > 0 else None
    store = NodeStore(root, node, memory=memory)
    evt = transport.LockedConnection(evt_conn)
    # one throttle shared by the task slots and the shuffle server: a
    # "slow" fault paces both, while the heartbeat thread keeps beating
    throttle = transport.Throttle()
    server = transport.ShuffleServer(store, timeout=opts["server_timeout"],
                                     throttle=throttle)
    transport.start_heartbeat(evt, node, heartbeat_interval)
    evt.send(protocol.ready(node, server.port, os.getpid()))
    worker = _Worker(node, store, evt, seed, records_per_node, value_size,
                     opts, throttle=throttle)
    commands: queue.SimpleQueue = queue.SimpleQueue()
    threading.Thread(target=_intake, args=(cmd_conn, worker, commands),
                     name="intake", daemon=True).start()
    pending: collections.deque = collections.deque()
    try:
        while True:
            if not pending:
                pending.append(commands.get())
            while not commands.empty():  # a map looks ahead in the arrived
                pending.append(commands.get_nowait())
            cmd = pending.popleft()
            if cmd["op"] == "stop":
                break
            worker.dispatch(cmd, pending)
    finally:
        server.close()
        worker.close()


def _intake(cmd_conn, worker: "_Worker", commands) -> None:
    """The command intake thread: read the pipe, note the newest epoch on
    the wire, hand every command over in arrival order.  A closed pipe
    (the coordinator is gone) ends the worker like a ``stop``."""
    while True:
        try:
            cmd = cmd_conn.recv()
        except transport.CHANNEL_DOWN:
            cmd = {"op": "stop"}
        worker.hear(cmd.get("epoch"))
        commands.put(cmd)
        if cmd["op"] == "stop":
            return


class _Cancelled(Exception):
    """A newer epoch is on the wire: the command's result is moot."""


class _SlotPool:
    """N daemon slot threads pulling runs of task commands off one queue."""

    def __init__(self, n: int, run: Callable[[list], None]):
        self._queue: queue.Queue = queue.Queue()
        self._run = run
        for i in range(n):
            threading.Thread(target=self._loop, name=f"slot{i}",
                             daemon=True).start()

    def _loop(self) -> None:
        while True:
            run = self._queue.get()
            try:
                self._run(run)
            finally:
                self._queue.task_done()

    def submit(self, run: list) -> None:
        self._queue.put(run)

    def drain(self) -> None:
        """Block until every queued and running run has finished."""
        self._queue.join()


class _Worker:
    """Task execution against one node's store."""

    def __init__(self, node: int, store: NodeStore,
                 evt: transport.LockedConnection, seed: int,
                 records_per_node: int, value_size: int,
                 options: Optional[dict] = None,
                 throttle: Optional[transport.Throttle] = None):
        opts = dict(DEFAULT_OPTIONS)
        opts.update(options or {})
        self.node = node
        self.pid = os.getpid()
        self.throttle = throttle or transport.Throttle()
        self.store = store
        self.evt = evt
        self.seed = seed
        self.records_per_node = records_per_node
        self.value_size = value_size
        #: chain id -> (seed, records_per_node, value_size); the fork
        #: arguments register the default (single-chain) namespace, and
        #: the service's chain-open commands add one entry per admitted
        #: chain
        self._chains: dict = {
            None: (seed, records_per_node, value_size)}
        self._stores: dict = {None: store, store.chain: store}
        self.pool = transport.PeerPool(timeout=opts["fetch_timeout"])
        slots = max(1, int(opts["task_slots"]))
        self._slots = _SlotPool(slots, self.execute_run) if slots > 1 else None
        self._ports: dict[int, int] = {}
        self._latest_epoch = -1  # newest epoch the command loop reached
        self._wire_epoch = -1    # newest epoch the intake saw: >= the above
        #: chain -> this node's memoized chain input columns
        self._inputs: dict = {}
        self._inputs_lock = threading.Lock()

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
        epoch = cmd.get("epoch")
        if epoch is not None and epoch > self._latest_epoch:
            # first command of a new epoch: quiesce the cancelled
            # epoch's in-flight tasks before anything newer touches the
            # store (queued stale commands fast-skip on the epoch check)
            self._latest_epoch = epoch
            self.hear(epoch)
            if self._slots is not None:
                self._slots.drain()
        if cmd["op"] == "ports":
            # epoch-cached peer port map: sent once per epoch instead of
            # riding on every task command
            self._ports = dict(cmd["ports"])
            return
        if cmd["op"] == "throttle":
            # a "slow" fault landing: every task and shuffle response
            # from here on runs at 1/factor speed (takes effect
            # immediately, even for tasks already on slot threads)
            self.throttle.set(cmd["factor"])
            return
        if cmd["op"] == "chain-open":
            # service mode: register an admitted chain's input parameters
            # so any slot can regenerate its chain input; pipe ordering
            # guarantees this lands before the chain's first task
            self._chains[cmd["chain"]] = (
                cmd["seed"], cmd["records_per_node"], cmd["value_size"])
            return
        if cmd["op"] == "chain-close":
            # drop the finished chain's in-memory state (its params,
            # store view and open map segments, and memoized input);
            # files stay on disk — the coordinator side has already read
            # the final output
            chain = cmd["chain"]
            self._chains.pop(chain, None)
            self._stores.pop(chain, None)
            self.store.for_chain(chain).close()
            with self._inputs_lock:
                self._inputs.pop(chain, None)
            return
        if cmd["op"] == "chain-sweep":
            # close-time hygiene: delete the finished chain's namespace
            # files, sparing the reduce jobs the cross-run cache
            # registered.  Fire-and-forget — the chain is already closed,
            # so there is no event stream left to report on, and a
            # filesystem race must not take down the command loop.
            swept_chain, keep = cmd["chain"], set(cmd.get("keep", ()))
            try:
                self.store.for_chain(swept_chain).sweep_chain(keep)
            except OSError:
                pass
            return
        # everything but the task ops — drops, sweeps, reclaims — runs
        # inline on the command loop, which the epoch drain keeps free
        # of concurrent task stragglers
        run = [cmd]
        while cmd["op"] == "map" and pending and all(
                pending[0].get(field) == cmd.get(field)
                for field in ("op", "chain", "job", "epoch")):
            run.append(pending.popleft())
        if self._slots is not None and cmd["op"] in protocol.TASK_OPS:
            self._slots.submit(run)
        else:
            self.execute_run(run)

    def execute_run(self, run: list) -> None:
        """Execute one unit of compute — a lone command, or a run of map
        commands of one chain, job and epoch — as units of commit: the
        map UDF runs once over the run's rows, then every task checks,
        commits and answers on its own."""
        mapped = self._map_run(run) if run[0]["op"] == "map" else [None]
        for cmd, outcome in zip(run, mapped):
            self.execute(cmd, outcome)

    def execute(self, cmd: dict, mapped=None) -> None:
        op = cmd.get("op")
        chain = cmd.get("chain")
        try:
            self._check_epoch(cmd)
            store = self._store(chain)
            if op == "map":
                self._map(cmd, store, mapped)
            elif op == "reduce":
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
        except _Cancelled:
            # skipped in the queue or aborted before its commit: nothing
            # was written.  A task still answers, so a speculative race
            # waiting on this attempt settles; drops and reclaims of a
            # cancelled epoch stay silent
            if op in protocol.TASK_OPS:
                self.evt.send(protocol.reply("task-failed", self.node, cmd,
                                             self.pid, "cancelled"))
        except transport.FetchError as exc:
            self.evt.send(protocol.reply("task-failed", self.node, cmd,
                                         self.pid, str(exc)))
        except Exception:
            # a software bug, not a fetch casualty: stay alive and hand
            # the coordinator the traceback, so a deterministic error
            # surfaces as a diagnostic instead of reading as a node
            # death and cascading through recovery
            self.evt.send(protocol.reply("task-error", self.node, cmd,
                                         self.pid, traceback.format_exc()))

    def _done(self, cmd: dict, result=None, fetched: int = 0,
              local: int = 0) -> None:
        """Report ``cmd`` complete, echoing its key/epoch/chain."""
        self.evt.send(protocol.reply(protocol.DONE[cmd["op"]], self.node,
                                     cmd, self.pid, result, fetched, local))

    def _store(self, chain) -> NodeStore:
        """The chain-namespaced store for one command (cached; benign if
        two slots race the first construction)."""
        store = self._stores.get(chain)
        if store is None:
            store = self._stores[chain] = self.store.for_chain(chain)
        return store

    # -- input ----------------------------------------------------------
    def _input_block(self, chain, node: int, start: int,
                     count: int) -> tuple:
        """Rows ``start..start + count`` of ``node``'s chain input.  The
        input is a pure function of the chain's seed (the paper's
        randomly generated binary data), so a re-homed mapper needs no
        fetch for job 1 and regenerates just its block; a node's *own*
        input is generated once, like ``LocalCluster._make_input``, and
        memoized per chain as its ``(keys, values)`` columns."""
        params = self._chains.get(chain)
        if params is None:
            raise RuntimeError(
                f"chain {chain!r} is not open on node {self.node}")
        seed, records_per_node, value_size = params
        seed = seed * 1000 + node
        if node != self.node:
            return generate_batch(count, seed, value_size, start=start)
        with self._inputs_lock:
            columns = self._inputs.get(chain)
            if columns is None:
                columns = self._inputs[chain] = generate_batch(
                    records_per_node, seed, value_size)
        keys, values = columns
        return keys[start:start + count], values[start:start + count]

    def _block_columns(self, cmd: dict, chain, store: NodeStore,
                       ports: dict[int, int]) -> tuple:
        """Resolve one map-input block; returns ``(keys, values, bytes
        fetched over TCP, bytes resolved locally)`` — local meaning the
        node's own store (memory tier first), never a socket."""
        source = cmd["source"]
        if source[0] == "input":
            return *self._input_block(chain, *source[1:]), 0, 0
        (_, job, partition, split_index, n_splits, node, start,
         count) = source[:8]
        # a 9th element names the namespace the piece lives in — a donor
        # chain for cache-adopted pieces (8-tuples: the task's own chain)
        src_chain = source[8] if len(source) > 8 else None
        piece_chain = src_chain if src_chain is not None else chain
        fetched = local = 0
        if node == self.node:
            read_store = store if src_chain is None \
                else self._store(src_chain)
            data = read_store.read_piece(job, partition, split_index,
                                         n_splits)
        else:
            data = self.pool.fetch_piece(
                ports[node], job, partition, split_index, n_splits,
                chain=piece_chain)
            fetched = len(data)
        keys, values = decode_columns(data, start, count)
        if node == self.node:
            # the resident piece is shared, not copied: the block only
            # touched its own frames, so only those count as read
            local = len(keys) * FRAME_HEADER + (
                values.size if values.ndim == 2 else sum(map(len, values)))
        return keys, values, fetched, local

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
    def _map_run(self, run: list) -> list:
        """Resolve a run's blocks and map all their rows in one column
        pass.  One outcome per task: ``(keys, values, fetched, local,
        seconds)`` — its resolve time plus its share of the pass, pro rata
        by rows — or the exception it is to raise: its own block's (a
        ``FetchError`` fails that task, not the run) or the pass's."""
        chain, job = run[0].get("chain"), run[0]["job"]
        outcomes: list = []
        passes: dict = {}  # ragged and uniform value columns: one each
        try:
            self._check_epoch(run[0])
            store = self._store(chain)
            for cmd in run:
                started = time.perf_counter()
                try:
                    block = self._block_columns(cmd, chain, store,
                                                self._ports)
                except Exception as exc:
                    outcomes.append(exc)
                    continue
                passes.setdefault(block[1].shape[1:], []).append(
                    len(outcomes))
                outcomes.append((*block, time.perf_counter() - started))
            for members in passes.values():
                started = time.perf_counter()
                # the epoch re-checked before every pass of the MD5 kernel,
                # so a cancelled run stops within one
                keys, values = map_batch(*(
                    np.concatenate([outcomes[i][column] for i in members])
                    for column in (0, 1)), job,
                    lambda: self._check_epoch(run[0]))
                per_row = (time.perf_counter() - started) / max(1, len(keys))
                cuts = np.cumsum([len(outcomes[i][0]) for i in members])[:-1]
                for i, task_keys, task_values in zip(
                        members, np.split(keys, cuts), np.split(values, cuts)):
                    *_, fetched, local, seconds = outcomes[i]
                    outcomes[i] = (task_keys, task_values, fetched, local,
                                   seconds + per_row * len(task_keys))
        except Exception as exc:
            return [exc] * len(run)
        return outcomes

    def _map(self, cmd: dict, store: NodeStore, mapped) -> None:
        if isinstance(mapped, Exception):
            raise mapped
        keys, values, fetched, local, seconds = mapped
        started = time.perf_counter()
        slices = partition_columns(keys, values, cmd["n_partitions"])
        self._check_epoch(cmd)
        counts = store.write_map_slices(cmd["job"], cmd["task"],
                                        cmd["origin"], slices)
        # the throttle stretches the task *before* its commit event, so
        # a slow node's commits land at 1/factor speed, not just its slot
        self.throttle.pace(seconds + time.perf_counter() - started)
        self._done(cmd, counts, fetched, local)

    def _reduce(self, cmd: dict, chain, store: NodeStore) -> None:
        started = time.perf_counter()
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
        # across slot/node placements
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
        self._check_epoch(cmd)
        store.write_piece_bytes(job, partition, split_index, n_splits,
                                encode_columns(keys, values))
        self.throttle.pace(time.perf_counter() - started)
        self._done(cmd, len(keys), fetched, len(data) - fetched)

    def _replicate(self, cmd: dict, chain, store: NodeStore) -> None:
        """Copy one stored piece from its primary holder to this node's
        disk (REPL-k / hybrid anchors): fetch the encoded bytes over the
        shuffle transport and commit them behind the same atomic rename
        as a locally computed piece — a SIGKILL mid-copy can never leave
        a torn committed replica."""
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
        self._check_epoch(cmd)
        store.write_piece_bytes(job, partition, split_index, n_splits,
                                data)
        self.throttle.pace(time.perf_counter() - started)
        self._done(cmd, None, len(data))

