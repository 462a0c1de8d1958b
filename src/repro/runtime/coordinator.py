"""The coordinator: job DAG, task dispatch, and the live RCMP protocol.

Holds the chain's job-dependency DAG and drives N worker **processes**
(one per simulated node) through it.  All cluster metadata — who persists
which map output and reducer piece, what a death destroyed — lives in the
per-chain :class:`~repro.runtime.storage.ClusterRegistry`; workers are
stateless executors over their node directory.

The runtime is split in two layers so one worker pool can serve many
chains (see :mod:`repro.runtime.service`):

* :class:`WorkerPool` owns the processes — forking, readiness,
  heartbeats, the event pump, death declaration, SIGKILL injection, and
  (service mode) respawning replacements for dead nodes.  One pool, one
  dispatch epoch: a death bumps it and cancels every in-flight task.
* :class:`ChainRun` is one chain's state machine — registry, job loop,
  recovery, dispatch — executing over a pool it does not own.  In
  single-chain mode it pumps the pool directly; in service mode a
  router thread feeds it events through a queue.

:class:`Coordinator` composes a private pool with one ``ChainRun`` for
the single-chain case: lifecycle, ``run_chain``, fault injection and the
final output; chain and pool state is read on ``.chain_run`` / ``.pool``.
Workers answer commands with :class:`~repro.runtime.protocol.Event`
tuples that echo the command's ``key``/``epoch``/``chain`` stamp; the
stale-message guard over those three fields is written once, in
:meth:`ChainRun._run_tasks`.

Failure path (the paper's protocol, §IV, run for real):

1. a worker dies (``SIGKILL``, injected by a
   :class:`~repro.runtime.faults.LiveFaultPlan` or a test hook);
2. the heartbeat channel goes silent; after the detector's expiry the
   coordinator declares the node dead (``expiry == 0`` is the paper-mode
   omniscient detector: process exit is seen immediately);
3. the in-flight job is cancelled — the dispatch epoch is bumped, so any
   straggler results from before the death are discarded on arrival;
4. the registry files the damage inventory and the shared planner
   (:mod:`repro.runtime.recovery`, also used by ``localexec``) computes
   the recomputation cascade as a cut over the chain's dependency graph
   from surviving on-disk outputs;
5. damaged jobs are recomputed in topological levels — independent DAG
   branches as one combined dispatch wave: only lost mappers re-execute,
   lost whole partitions are split ``k`` ways over surviving workers
   (``k`` capped at the surviving-node count), and the Fig. 5 guard drops
   every consumer's map outputs derived from split partitions before the
   next level re-runs.

Recomputed reducer pieces are buffered and committed into the registry
atomically per job plan, so a second death mid-recovery restarts that
job's recovery from its original damage inventory instead of seeing a
half-regenerated partition.

``strategy="optimistic"`` swaps step 5 for whole-job re-execution (the
OPTIMISTIC baseline: correct, but recomputes everything the cascade
touches).

``strategy="repl2"`` / ``"repl3"`` are the Hadoop baselines: every
committed job output is replicated to k node-local stores (pipelined
copies over the shuffle transport), a death *promotes* surviving replicas
instead of filing damage, under-replicated pieces are re-replicated in
the background of the chain, and no recomputation cascade ever fires.

``strategy="hybrid"`` is §IV-C: RCMP recovery plus replication of every
``hybrid_interval``-th job's output (an *anchor*) at commit time.  The
recomputation cascade is bounded below by the last intact anchor, and
``hybrid_reclaim`` deletes the persisted map/reduce files behind the
anchor with real unlinks (mirroring ``PersistedStore.reclaim_jobs``).

Every strategy must produce byte-identical final output.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Any, Callable, Optional

from repro.faults.detector import HeartbeatDetector, ProgressRateTracker
from repro.faults.model import FaultModel
from repro.localexec.engine import LocalJobConfig
from repro.localexec.records import Record
from repro.obs import NULL_TRACER, Tracer
from repro.runtime.faults import LiveFaultPlan
from repro.runtime.protocol import TASK_DONE, TASK_OPS, Event
from repro.runtime.recovery import (
    STRIDE,
    JobGraph,
    cascade_jobs,
    consumer_invalidations,
    hybrid_reclaimable,
    is_hybrid_anchor,
    plan_job_recovery,
)
from repro.runtime.storage import (
    BlockSpec,
    ClusterRegistry,
    MapEntry,
    NodeStore,
    PieceEntry,
    iter_records,
    stored_checksum,
)
from repro.runtime.transport import CHANNEL_DOWN
from repro.runtime.worker import worker_main

STRATEGIES = ("rcmp", "optimistic", "repl2", "repl3", "hybrid")

#: intermediate-output replication factor per strategy (REPL-k baselines)
_REPLICATION = {"repl2": 2, "repl3": 3}

#: speculation (``ChainRun._maybe_speculate``): a tail task older than
#: ``SPECULATION_SLOWDOWN x`` its batch's median committed task wall gets
#: a backup attempt (Binocular/Hadoop semantics), but never one younger
#: than ``SPECULATION_MIN_AGE`` seconds — millisecond tasks must not
#: speculate on scheduler jitter
SPECULATION_SLOWDOWN = 2.0
SPECULATION_MIN_AGE = 0.05

#: ``RuntimeConfig`` fields that shape the worker pool: consumed when the
#: workers are forked or by the pool's own detectors, so a chain running
#: on a shared pool (:mod:`repro.runtime.service`) cannot override them
POOL_FIELDS = frozenset({
    "n_nodes", "task_slots", "memory_budget", "fetch_timeout",
    "heartbeat_interval", "heartbeat_expiry", "startup_timeout",
})

#: hook callback: ``fn(event, **info)``; events: job-start, maps-done,
#: reduce-dispatch, job-commit, death, recovery-start, chain-done
Hooks = Callable[..., None]


class NodeDeath(Exception):
    """Raised by the event pump when a worker is declared dead."""

    def __init__(self, node: int):
        super().__init__(f"node {node} declared dead")
        self.node = node


@dataclass(frozen=True)
class RuntimeConfig:
    """Process-runtime shape: cluster size, chain config, detection."""

    n_nodes: int = 4
    chain: LocalJobConfig = LocalJobConfig()
    #: worker heartbeat period (wall-clock seconds)
    heartbeat_interval: float = 0.05
    #: silence before declaring a node dead; 0 = paper-mode omniscient
    #: detection (process exit is seen immediately)
    heartbeat_expiry: float = 0.0
    strategy: str = "rcmp"
    #: wall-clock seconds without dispatch progress before giving up
    io_timeout: float = 30.0
    #: wall-clock seconds every forked worker gets to report ready;
    #: must exceed heartbeat_expiry or a slow starter would be declared
    #: dead before its deadline even ran out
    startup_timeout: float = 30.0
    fig5_guard: bool = True
    #: concurrent tasks per worker process: 1 = classic single-slot
    #: semantics, N > 1 = a slot thread pool, "auto" = cores-aware
    #: (cpu count split across the co-hosted workers)
    task_slots: int | str = 1
    #: per-attempt shuffle fetch timeout; must sit well under io_timeout
    #: so a dead source resolves to task-failed before dispatch is
    #: judged stalled
    fetch_timeout: float = 5.0
    #: bytes of hot map slices / reduce pieces each worker pins in RAM
    #: (write-through LRU over the on-disk durability tier); 0 disables
    #: the memory tier — every read goes back to the files
    memory_budget: int = 64 << 20
    #: replicate every k-th job's output as a cascade-bounding anchor
    #: (strategy "hybrid" only; paper §IV-C)
    hybrid_interval: int = 2
    #: replication factor applied at hybrid anchors
    hybrid_replication: int = 2
    #: delete persisted map/reduce files behind each committed anchor
    hybrid_reclaim: bool = False
    #: launch backup attempts for tail tasks on idle slots (first commit
    #: wins; the loser's partial output is swept)
    speculation: bool = False

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least 1 node")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"expected one of {STRATEGIES}")
        if self.strategy == "hybrid" and self.hybrid_interval < 1:
            raise ValueError("hybrid strategy needs hybrid_interval >= 1")
        if self.hybrid_replication < 2:
            raise ValueError("hybrid_replication must be >= 2")
        if self.hybrid_reclaim and self.strategy != "hybrid":
            raise ValueError("hybrid_reclaim requires strategy='hybrid'")
        if self.replication > 1 and self.n_nodes < self.replication:
            raise ValueError(
                f"strategy {self.strategy!r} needs at least "
                f"{self.replication} nodes to place its replicas")
        if self.io_timeout <= 0:
            raise ValueError("io_timeout must be positive")
        if self.io_timeout <= 2 * self.heartbeat_expiry:
            raise ValueError(
                f"io_timeout ({self.io_timeout}s) must comfortably "
                f"exceed heartbeat_expiry ({self.heartbeat_expiry}s): "
                "a mid-shuffle death must be declared well before "
                "dispatch is judged stalled")
        if self.startup_timeout <= 0:
            raise ValueError("startup_timeout must be positive")
        if self.startup_timeout <= self.heartbeat_expiry:
            raise ValueError(
                f"startup_timeout ({self.startup_timeout}s) must exceed "
                f"heartbeat_expiry ({self.heartbeat_expiry}s): a worker "
                "still inside its startup budget may not be declared "
                "dead for heartbeat silence")
        if self.task_slots != "auto" and (
                not isinstance(self.task_slots, int)
                or self.task_slots < 1):
            raise ValueError("task_slots must be a positive int or 'auto'")
        if self.fetch_timeout <= 0:
            raise ValueError("fetch_timeout must be positive")
        if self.fetch_timeout >= self.io_timeout:
            raise ValueError(
                f"fetch_timeout ({self.fetch_timeout}s) must be below "
                f"io_timeout ({self.io_timeout}s): a single fetch "
                "attempt may not consume the whole dispatch-stall "
                "budget")
        if not isinstance(self.memory_budget, int) \
                or self.memory_budget < 0:
            raise ValueError("memory_budget must be a non-negative "
                             "byte count (0 disables the memory tier)")
        if self.n_nodes == 1 and self.speculation:
            # nowhere to place a backup: warn and no-op instead of
            # queuing it behind the only (possibly slow) node — see also
            # the idle-slot check in backup placement
            warnings.warn("speculation disabled: a 1-node cluster has no "
                          "healthy peer to run it on", stacklevel=2)
            object.__setattr__(self, "speculation", False)
        # reuses the simulator's detector semantics (and its validation)
        self.detector  # noqa: B018 -- construct to validate

    @property
    def detector(self) -> HeartbeatDetector:
        return HeartbeatDetector(interval=self.heartbeat_interval,
                                 expiry=self.heartbeat_expiry)

    @property
    def replication(self) -> int:
        """Replication factor every committed job output maintains."""
        return _REPLICATION.get(self.strategy, 1)

    @property
    def resolved_task_slots(self) -> int:
        """``task_slots`` with ``"auto"`` resolved: the host's cores
        split across the co-hosted workers, at least 1."""
        if self.task_slots == "auto":
            return max(1, (os.cpu_count() or 1) // self.n_nodes)
        return int(self.task_slots)

    def worker_options(self) -> dict:
        """The data-plane knobs each forked worker receives."""
        return {
            "task_slots": self.resolved_task_slots,
            "fetch_timeout": self.fetch_timeout,
            "server_timeout": self.io_timeout,
            "memory_budget": self.memory_budget,
        }

    @property
    def recomputes(self) -> bool:
        """Whether recovery recomputes (RCMP family) — the REPL-k and
        OPTIMISTIC baselines never run a recomputation cascade."""
        return self.strategy in ("rcmp", "hybrid")

    @property
    def graph(self) -> JobGraph:
        """The chain's dependency DAG (linear when ``dependencies`` is
        unset), cached — it is consulted per dispatched task."""
        cached = self.__dict__.get("_graph")
        if cached is None:
            cached = self.chain.graph()
            object.__setattr__(self, "_graph", cached)
        return cached

    def is_anchor(self, job: int) -> bool:
        """Hybrid replication point (§IV-C) — every ``hybrid_interval``-th
        job except sinks (whose output is part of the final result)."""
        return (self.strategy == "hybrid"
                and is_hybrid_anchor(self.graph, job, self.hybrid_interval))

    def replication_for(self, job: int) -> int:
        """Copies ``job``'s committed output must hold on distinct nodes."""
        if self.is_anchor(job):
            return self.hybrid_replication
        return self.replication


@dataclass
class _Link:
    """Coordinator-side handles for one worker process."""

    node: int
    proc: multiprocessing.Process
    cmd: Any                      # command pipe (send end)
    evt: Any                      # event pipe (recv end)
    pid: int = 0
    port: int = 0
    last_seen: float = 0.0
    closed: bool = False
    #: epoch whose peer-port map this worker has cached (ports are
    #: broadcast once per epoch instead of riding on every command)
    ports_epoch: int = -1
    #: serializes pipe writes — service mode has many chain threads
    #: dispatching to the same worker, and interleaved ``send`` bytes
    #: would corrupt the command stream
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class RunReport:
    """What one chain execution did, wall-clock."""

    checksum: str
    #: (job ordinal, "run" | "rerun" | "recompute" | "re-replicate"
    #: | "cached", wall seconds) — "cached" jobs were adopted from the
    #: cross-run result cache and did no work
    job_times: list[tuple[int, str, float]] = field(default_factory=list)
    #: (wall time since chain start, node) per declared death
    deaths: list[tuple[float, int]] = field(default_factory=list)
    n_nodes: int = 0
    strategy: str = "rcmp"
    #: (anchor job, bytes freed) per hybrid reclamation pass
    reclaims: list[tuple[int, int]] = field(default_factory=list)
    #: dispatch phase -> bytes the phase's tasks pulled over loopback
    #: TCP sockets (``shuffle_bytes_tcp`` is the explicit alias)
    shuffle_bytes: dict[str, int] = field(default_factory=dict)
    #: dispatch phase -> bytes the phase's tasks resolved *without* a
    #: socket: the node's own store (memory tier or disk).  Local bytes
    #: mirror what the TCP path would have shipped (split-filtered for a
    #: split reducer), so tcp + local stays an exact,
    #: placement-comparable total.
    shuffle_bytes_local: dict[str, int] = field(default_factory=dict)
    #: service-mode submission id (None for single-chain runs)
    chain_id: Optional[str] = None
    #: straggler handling: speculative attempts/wins/wasted bytes,
    #: pre-replicated pieces, and the node -> factor throttle map
    speculation: dict = field(default_factory=dict)
    #: task completions that arrived from a cancelled epoch — work a
    #: survivor finished and committed after a death had made it moot
    cancelled_commits: int = 0

    @property
    def wall_time(self) -> float:
        return sum(t for _, _, t in self.job_times)

    @property
    def shuffle_bytes_tcp(self) -> dict[str, int]:
        """Per-phase socket bytes (alias of ``shuffle_bytes`` — the
        historical name keeps its TCP-only meaning so byte-ratio gates
        measure wire traffic, not placement luck)."""
        return self.shuffle_bytes

    @property
    def total_shuffle_bytes(self) -> int:
        """Every byte the chain's tasks pulled through the shuffle,
        TCP and local combined — exact under any slot/node placement."""
        return self.total_shuffle_bytes_tcp + self.total_shuffle_bytes_local

    @property
    def total_shuffle_bytes_tcp(self) -> int:
        return sum(self.shuffle_bytes.values())

    @property
    def total_shuffle_bytes_local(self) -> int:
        return sum(self.shuffle_bytes_local.values())

    @property
    def reclaimed_bytes(self) -> int:
        return sum(b for _, b in self.reclaims)

    def to_dict(self) -> dict:
        """JSON-serializable form (the service front door's wire shape)."""
        return {
            "checksum": self.checksum,
            "job_times": [[j, k, t] for j, k, t in self.job_times],
            "deaths": [[t, n] for t, n in self.deaths],
            "n_nodes": self.n_nodes,
            "strategy": self.strategy,
            "reclaims": [[a, b] for a, b in self.reclaims],
            "shuffle_bytes": dict(self.shuffle_bytes),
            "shuffle_bytes_local": dict(self.shuffle_bytes_local),
            "chain_id": self.chain_id,
            "wall_time": self.wall_time,
            "speculation": dict(self.speculation),
            "cancelled_commits": self.cancelled_commits,
        }

    def render(self) -> str:
        lines = [f"{'job':>4s}  {'kind':<12s}  {'wall':>9s}"]
        for job, kind, wall in self.job_times:
            lines.append(f"{job:>4d}  {kind:<12s}  {wall:>8.3f}s")
        for anchor, freed in self.reclaims:
            lines.append(f"{anchor:>4d}  {'reclaim':<12s}  "
                         f"{freed:>8d}B freed behind anchor")
        lines.append(f"deaths: {len(self.deaths)}   "
                     f"shuffle: {self.total_shuffle_bytes}B "
                     f"(tcp {self.total_shuffle_bytes_tcp}B, "
                     f"local {self.total_shuffle_bytes_local}B)   "
                     f"checksum: {self.checksum}")
        if self.speculation.get("attempts") or self.speculation.get(
                "pre_replicated") or self.speculation.get("throttled"):
            spec = self.speculation
            lines.append(
                f"speculation: {spec.get('attempts', 0)} attempts, "
                f"{spec.get('wins', 0)} wins, "
                f"{spec.get('wasted_bytes', 0)}B wasted, "
                f"{spec.get('pre_replicated', 0)} pre-replicated, "
                f"throttled: {spec.get('throttled', {})}")
        if self.cancelled_commits:
            lines.append(f"cancelled_commits: {self.cancelled_commits}")
        return "\n".join(lines)


class WorkerPool:
    """The shared worker processes and everything node-lifecycle.

    Forks one worker per node, waits for readiness, pumps the event
    pipes, fires due fault kills, declares deaths (idempotently — many
    chains may react to one death), and optionally respawns replacement
    workers.  It knows nothing about chains or jobs; that is
    :class:`ChainRun`'s side of the split."""

    def __init__(self, config: RuntimeConfig, workdir: str | Path,
                 tracer: Optional[Tracer] = None, faults=None):
        """``faults`` is anything with ``due(now, alive) -> victims``
        (a :class:`~repro.runtime.faults.LiveFaultPlan`, or the chain
        service's MTBF arrival process)."""
        self.config = config
        self.workdir = Path(workdir)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults
        self.alive: set[int] = set(range(config.n_nodes))
        self.epoch = 0
        #: (wall time since pool start, node) per declared death
        self.deaths: list[tuple[float, int]] = []
        #: node -> slow factor, per throttle command delivered (obs only;
        #: detection never reads this — suspicion is progress-rate based)
        self.throttled: dict[int, float] = {}
        #: progress-rate suspicion: *suspected-slow*, distinct from dead
        self.progress = ProgressRateTracker()
        #: alive node -> monotonic time of its latest suspected verdict
        #: (rebound, never mutated: chain threads read it concurrently)
        self.suspected_at: dict[int, float] = {}
        self._suspected: set[int] = set()
        self._suspected_at = 0.0
        self._links: dict[int, _Link] = {}
        self._inbox: deque[Event] = deque()
        self._respawning: set[int] = set()
        self._ctx = None
        self._t0 = 0.0
        self._started = False
        self._shut = False

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def start(self) -> None:
        """Fork the workers and wait for every readiness message within
        ``config.startup_timeout``."""
        if self._started:
            raise RuntimeError("already started")
        self._started = True
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context()
        self._t0 = time.monotonic()
        self.tracer.bind(self.now, label="process-runtime")
        try:
            for node in range(self.config.n_nodes):
                self._fork_worker(node)
            pending = set(self._links)
            deadline = time.monotonic() + self.config.startup_timeout
            while pending:
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"workers never reported ready within "
                        f"{self.config.startup_timeout:g}s: "
                        f"{sorted(pending)}")
                try:
                    evt = self.pump(check_faults=False)
                except NodeDeath as death:
                    raise RuntimeError(f"worker {death.node} died during "
                                       f"startup") from death
                if evt and evt.kind == "ready":
                    self._bind_ready(evt)
                    pending.discard(evt.node)
        except BaseException:
            # __enter__ has not returned yet, so the context manager will
            # never call shutdown(); reap the live workers here or they
            # leak until interpreter exit
            self.shutdown()
            raise

    def _fork_worker(self, node: int) -> _Link:
        cmd_recv, cmd_send = self._ctx.Pipe(duplex=False)
        evt_recv, evt_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(node, str(self.workdir), cmd_recv, evt_send,
                  self.config.heartbeat_interval,
                  self.config.worker_options()),
            name=f"rcmp-worker-{node}", daemon=True)
        proc.start()
        cmd_recv.close()
        evt_send.close()
        link = _Link(node, proc, cmd_send, evt_recv,
                     last_seen=time.monotonic())
        self._links[node] = link
        return link

    def shutdown(self) -> None:
        """Stop and reap every worker.

        Idempotent: a failed ``start()`` reaps its own workers before
        the ``with`` block's ``__exit__`` runs shutdown again, and an
        explicit shutdown followed by the context-manager exit must not
        re-walk dead links.  Workers are joined on parallel reaper
        threads so teardown costs O(slowest worker), not a serial sum
        of up to 3 x 2 s join budgets per link."""
        if self._shut:
            return
        self._shut = True
        for link in self._links.values():
            try:
                link.cmd.send({"op": "stop"})
            except CHANNEL_DOWN:
                pass
        reapers = [threading.Thread(target=self._reap, args=(link,),
                                    name=f"reap-node{link.node}")
                   for link in self._links.values()]
        for reaper in reapers:
            reaper.start()
        for reaper in reapers:
            reaper.join()
        for link in self._links.values():
            for conn in (link.cmd, link.evt):
                try:
                    conn.close()
                except OSError:
                    pass

    @staticmethod
    def _reap(link: _Link) -> None:
        link.proc.join(timeout=2.0)
        if link.proc.is_alive():
            link.proc.terminate()
            link.proc.join(timeout=2.0)
        if link.proc.is_alive():  # pragma: no cover - last resort
            link.proc.kill()
            link.proc.join(timeout=2.0)

    def now(self) -> float:
        return time.monotonic() - self._t0

    # -------------------------------------------------------------- sending
    def send(self, node: int, cmd: dict) -> None:
        """Send one control command (no peer-port precondition)."""
        link = self._links[node]
        with link.lock:
            self._send_locked(link, cmd)

    @staticmethod
    def _send_locked(link: _Link, cmd: dict) -> None:
        try:
            link.cmd.send(cmd)
        except CHANNEL_DOWN:
            link.closed = True  # death will be declared by the pump

    def dispatch(self, node: int, cmd: dict | list[dict]) -> None:
        """Send one task command — or a list of them, a node's share of
        a batch, as one message — preceded, once per (link, epoch), by
        the peer-port broadcast.  Both sends happen under the link lock
        so concurrent chain threads can neither interleave pipe writes
        nor slip a task in front of its epoch's port map."""
        link = self._links[node]
        with link.lock:
            self._send_ports(link)
            self._send_locked(link, cmd)
        now = time.monotonic()
        for one in cmd if isinstance(cmd, list) else [cmd]:
            if one.get("op") in TASK_OPS and one.get("epoch") == self.epoch:
                self.progress.record_dispatch(node, now)

    def _send_ports(self, link: _Link) -> None:
        """The once-per-epoch peer-port broadcast (under ``link.lock``)."""
        if link.ports_epoch != self.epoch:
            self._send_locked(link, {"op": "ports", "epoch": self.epoch,
                                     "ports": self.ports()})
            link.ports_epoch = self.epoch

    def ports(self) -> dict[int, int]:
        return {n: self._links[n].port for n in self.alive}

    # ----------------------------------------------------------- event pump
    def pump(self, timeout: float = 0.02,
             check_faults: bool = True) -> Optional[Event]:
        """Receive one event; fire due fault kills; declare deaths.

        Returns a non-heartbeat worker event, or None on an idle tick.
        Pending inbox messages are always delivered before a death is
        declared, so commits that beat the kill are not lost.  Readiness
        messages from respawning replacement workers are consumed here
        (they re-join ``alive`` without an epoch bump)."""
        if check_faults and self.faults:
            # slow events first: a plan pairing slow@t and kill@t must
            # throttle the victim before any same-tick kill lands
            self.deliver_throttles()
            for victim in self.faults.due(time.monotonic(), self.alive):
                self.kill_node(victim)
        if self._started:
            # keep the suspicion verdict fresh (cached ~0.05s) even when
            # nothing else polls it: pre-replication reads it after every
            # wave, speculation (opt-in) on every dispatch tick
            self.suspected_slow()
        conns = {link.evt: node for node, link in self._links.items()
                 if (node in self.alive or node in self._respawning)
                 and not link.closed}
        if self._inbox:
            # several pipes were ready last tick and one event was handed
            # over: the rest is already here — poll, never sleep on it
            timeout = 0
        if conns:
            for conn in connection_wait(list(conns), timeout=timeout):
                node = conns[conn]
                try:
                    evt = conn.recv()
                except CHANNEL_DOWN:
                    self._links[node].closed = True
                    continue
                self._links[node].last_seen = time.monotonic()
                if evt.kind == "hb":
                    continue
                if evt.epoch == self.epoch:
                    if evt.kind in TASK_DONE:
                        self.progress.record_commit(evt.node,
                                                    time.monotonic())
                    elif evt.kind == "task-failed":
                        self.progress.record_settled(evt.node)
                self._inbox.append(evt)
        else:
            time.sleep(timeout)
        if self._inbox:
            evt = self._inbox.popleft()
            if evt.kind == "ready" and evt.node in self._respawning:
                self._admit_respawned(evt)
                return None
            return evt
        dead = self._expired_nodes()
        if dead:
            raise NodeDeath(dead[0])
        return None

    def _expired_nodes(self) -> list[int]:
        detector = self.config.detector
        now = time.monotonic()
        dead = []
        for node in sorted(self.alive):
            link = self._links[node]
            if detector.paper_mode:
                # omniscient mode: a closed pipe or reaped process is an
                # immediate declaration (the paper's zero-delay detector)
                if link.closed or not link.proc.is_alive():
                    dead.append(node)
            elif now - link.last_seen > detector.expiry:
                dead.append(node)
        return dead

    # ------------------------------------------------------------ straggler
    def deliver_throttles(self) -> None:
        """Deliver every due ``slow@`` fault.  MTBF arrival processes
        (service mode) have no throttle clock — hence the getattr
        duck-typing; a :class:`LiveFaultPlan` drives only the
        single-chain coordinator, whose one thread dispatches and pumps,
        so its clock is never read from two threads."""
        due_throttles = getattr(self.faults, "due_throttles", None)
        if due_throttles is not None:
            for node, factor in due_throttles(time.monotonic(), self.alive):
                self.throttle_node(node, factor)

    def throttle_node(self, node: int, factor: float) -> None:
        """Deliver a ``slow@node:factor`` fault: the worker self-throttles
        its task loop and shuffle serving to 1/factor speed.  The node
        stays up, heartbeats keep flowing — slow is never dead."""
        if node not in self.alive:
            return
        self.send(node, {"op": "throttle", "factor": factor})
        self.throttled[node] = factor
        self.tracer.instant("cascade", "node-throttled", node=node,
                            factor=factor)

    def load(self, node: int) -> int:
        """Tasks currently in flight on ``node`` (backup placement)."""
        return self.progress.load(node)

    def suspected_slow(self) -> set[int]:
        """The alive nodes currently suspected slow (progress-rate
        verdict, cached briefly — chain threads poll this per event).
        Suspicion feeds speculation and pre-replication only; it never
        feeds death declaration."""
        now = time.monotonic()
        if now - self._suspected_at < 0.05:
            return self._suspected
        current = self.progress.suspects(now, self.alive)
        for node in current - self.suspected_at.keys():
            self.tracer.instant("cascade", "suspected-slow", node=node,
                                rate=self.progress.rate(node, now))
        for node in self._suspected - current:
            # only a genuine recovery clears: a drained queue at a phase
            # boundary says nothing about the node's speed
            if self.progress.load(node) > 0:
                self.tracer.instant("cascade", "suspicion-cleared",
                                    node=node)
        if current:
            self.suspected_at = {**self.suspected_at,
                                 **dict.fromkeys(current, now)}
        self._suspected = current
        self._suspected_at = now
        return current

    def suspected_since(self, t0: float) -> set[int]:
        """The alive nodes suspected slow at any verdict since ``t0``."""
        self.suspected_slow()  # refresh the verdict
        return {n for n, t in self.suspected_at.items() if t >= t0}

    # -------------------------------------------------------------- failure
    def kill_node(self, node: int) -> None:
        """SIGKILL a worker — a real fail-stop.  Detection still flows
        through the heartbeat channel; callers do not mark it dead."""
        link = self._links[node]
        if not link.pid:
            raise RuntimeError(f"node {node} has not reported ready")
        try:
            os.kill(link.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_death(self, node: int) -> bool:
        """Pool-level death bookkeeping; idempotent (in service mode
        every chain reacts to the death, but the pool declares it once).
        Returns True when this call actually declared it.

        ``alive`` is rebound, never mutated in place: chain threads
        iterate it concurrently (``sorted(pool.alive)``) and an in-place
        ``discard`` could blow up their iteration mid-walk."""
        if node not in self.alive:
            return False
        self.epoch += 1  # cancel in-flight work: stale results discarded
        self.alive = self.alive - {node}
        for survivor in self.alive:
            # put the new epoch on every survivor's wire now: its intake
            # hears it while the executor is still busy and the queued
            # commands of the cancelled epoch are skipped, not run —
            # also on a node recovery has no task for yet
            link = self._links[survivor]
            with link.lock:
                self._send_ports(link)
        self.progress.forget(node)
        self.progress.clear_outstanding()  # epoch bump cancelled the rest
        self._suspected = self._suspected - {node}
        self.suspected_at = {n: t for n, t in self.suspected_at.items()
                             if n != node}
        self.throttled.pop(node, None)
        link = self._links[node]
        link.closed = True
        link.proc.join(timeout=1.0)
        self.deaths.append((self.now(), node))
        self.tracer.instant("cascade", "node-death", node=node,
                            pid=link.pid)
        return True

    # -------------------------------------------------------------- respawn
    def respawn(self, node: int) -> Optional[_Link]:
        """Fork a replacement worker for a dead node id (service mode).

        The replacement re-joins ``alive`` when its readiness message
        arrives in :meth:`pump` — *without* an epoch bump, which would
        silently cancel every chain's in-flight phase.  The dead
        worker's files are left on disk on purpose: each chain's
        registry dropped its entries at death (nothing references them
        again — a recomputed output appends a later section, which wins
        over the dead incarnation's), and the coordinator side may still
        be reading a completed chain's final output from that
        directory."""
        if node in self.alive or node in self._respawning:
            return None
        old = self._links.get(node)
        if old is not None:
            for conn in (old.cmd, old.evt):
                try:
                    conn.close()
                except OSError:
                    pass
        link = self._fork_worker(node)
        self._respawning.add(node)
        return link

    def _bind_ready(self, evt: Event) -> None:
        link = self._links[evt.node]
        link.port, link.pid = evt.result, evt.pid

    def _admit_respawned(self, evt: Event) -> None:
        node = evt.node
        self._bind_ready(evt)
        self._respawning.discard(node)
        self.alive = self.alive | {node}
        # every worker must relearn the port map (the replacement's port
        # changed) — reset the broadcast marker under each link's lock
        # so a concurrently dispatching chain can't skip the rebroadcast
        for other in self._links.values():
            with other.lock:
                other.ports_epoch = -1
        self.tracer.instant("cascade", "node-respawned", node=node,
                            pid=evt.pid)


class ChainRun:
    """One chain's execution state machine over a shared worker pool.

    Owns the chain's registry, job loop, recovery, and dispatch; the
    pool owns the processes.  ``chain_id=None`` is classic single-chain
    mode (files in the node roots, events pumped inline); a string id
    namespaces the chain's files on every node and expects a service
    router to feed events through :meth:`attach_inbox`'s queue."""

    def __init__(self, config: RuntimeConfig, pool: WorkerPool,
                 chain_id: Optional[str] = None,
                 tracer: Optional[Tracer] = None,
                 hooks: Optional[Hooks] = None,
                 map_assignment: Optional[Callable[[int, int, int], int]]
                 = None,
                 fault_plan: Optional[LiveFaultPlan] = None):
        """``map_assignment(job, task_id, storage_node) -> node`` overrides
        the data-local default, mirroring ``LocalCluster``'s hook (tests
        use it to construct the Fig. 5 hazard on real processes)."""
        self.config = config
        self.pool = pool
        self.chain_id = chain_id
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.hooks = hooks or (lambda event, **info: None)
        self.map_assignment = map_assignment or (lambda j, t, node: node)
        self.fault_plan = fault_plan
        self.registry = ClusterRegistry()
        self.graph = config.graph
        #: suspicion is sticky per chain: a node suspected at any verdict
        #: since this moment stays suspected for the chain's lifetime,
        #: because a straggler's live verdict clears the moment its queue
        #: drains at a phase boundary, yet its committed outputs stay at
        #: risk — and no longer, so one transient suspicion does not tax
        #: every later chain of a resident service
        self.started = time.monotonic()
        #: committed jobs — a *set*, not a high-water mark: independent
        #: DAG branches complete out of index order
        self.done_jobs: set[int] = set()
        #: jobs skipped at start via cross-run cache adoption
        self.adopted_jobs = 0
        self.deaths: list[tuple[float, int]] = []
        self.job_times: list[tuple[int, str, float]] = []
        self.reclaims: list[tuple[int, int]] = []
        self.shuffle_bytes: dict[str, int] = {}
        self.shuffle_bytes_local: dict[str, int] = {}
        # straggler accounting: backup attempts, first-commit wins, the
        # loser attempts' discarded bytes, eager pre-replications
        self.spec_attempts = 0
        self.spec_wins = 0
        self.spec_wasted_bytes = 0
        self.pre_replications = 0
        #: ``*-done`` task events of this chain from a cancelled epoch
        self.cancelled_commits = 0
        #: task key -> losing node of a resolved speculative race; its
        #: late duplicate event is swallowed and its output swept
        self._spec_losers: dict[tuple, int] = {}
        self._spec_warned = False
        self._pending_deaths: deque[int] = deque()
        self._inbox: Optional[queue.Queue] = None

    # --------------------------------------------------------- event intake
    def attach_inbox(self) -> queue.Queue:
        """Switch to service mode: events arrive on a queue fed by the
        service's router thread instead of pumping the pool inline."""
        self._inbox = queue.Queue()
        return self._inbox

    def notify_death(self, node: int) -> None:
        """Called by the service loop when the pool declares a death.
        Queues the death for this chain and wakes it if it is blocked
        waiting for events (task events already queued are delivered
        first, matching the pump's commits-beat-the-kill ordering)."""
        self._pending_deaths.append(node)
        if self._inbox is not None:
            self._inbox.put(None)  # wake-up only; the death is queued

    def _raise_pending_death(self) -> None:
        if self._pending_deaths:
            raise NodeDeath(self._pending_deaths.popleft())

    def _next_event(self, timeout: float = 0.02) -> Optional[Event]:
        if self._inbox is None:
            return self.pool.pump(timeout)
        try:
            evt = self._inbox.get(timeout=timeout)
        except queue.Empty:
            evt = None
        if evt is None:
            self._raise_pending_death()
        return evt

    # ------------------------------------------------------- cache adoption
    def adopt_prefix(self, entries) -> int:
        """Adopt cached jobs (cross-run result cache): register every
        cached piece in this chain's registry and mark those jobs
        complete, so execution starts at the first uncached job.

        ``entries`` are :class:`~repro.runtime.cache.CacheEntry` rows
        forming a dependency-closed subgraph (every parent of an adopted
        job is adopted too — :func:`adoptable_closure`); on a linear
        chain that is the classic contiguous prefix.  Adopted pieces
        keep their physical namespace (``piece.chain``) — the shuffle
        path serves them across namespaces — and are single-holder by
        construction: if one dies,
        :meth:`~ClusterRegistry.record_death` files it as plain damage
        and the normal RCMP cascade recomputes it (through adopted
        upstream or from regenerated chain input).  Must run before any
        job executes."""
        if self.done_jobs or self.registry.pieces:
            raise RuntimeError("prefix adoption must precede execution")
        for entry in entries:
            for piece in entry.pieces:
                self.registry.add_piece(PieceEntry(
                    entry.job, piece.partition, piece.split_index,
                    piece.n_splits, piece.node, piece.n_records,
                    chain=piece.chain))
            self.job_times.append((entry.job, "cached", 0.0))
            self.done_jobs.add(entry.job)
        self.adopted_jobs = len(self.done_jobs)
        if entries:
            self.tracer.instant("chain", "cache-adopt",
                                jobs=self.adopted_jobs,
                                chain_id=self.chain_id)
        return self.adopted_jobs

    # ---------------------------------------------------------- chain logic
    def run(self) -> RunReport:
        """Execute the chain end to end, recovering from every death."""
        chain = self.config.chain
        span = self.tracer.span("chain", f"chain-x{chain.n_jobs}",
                                nodes=self.config.n_nodes,
                                strategy=self.config.strategy,
                                chain_id=self.chain_id)
        outcome = "ok"
        try:
            while (len(self.done_jobs) < chain.n_jobs
                   or self._cascade_jobs()
                   or self._under_replicated()):
                try:
                    self._raise_pending_death()
                    if self._cascade_jobs():
                        self._recover()
                    elif self._under_replicated():
                        self._re_replicate()
                    else:
                        # the wave of every dependency-ready job: one
                        # job on a linear chain, whole levels of a DAG
                        self._run_wave(self.graph.ready(self.done_jobs))
                except NodeDeath as death:
                    self._handle_death(death.node)
        except BaseException:
            outcome = "failed"
            raise
        finally:
            span.end(outcome=outcome, deaths=len(self.deaths))
        if self._spec_losers:
            self._drain_spec_losers()
        self.hooks("chain-done")
        checksum = self.checksum()
        return RunReport(checksum=checksum, job_times=list(self.job_times),
                         deaths=list(self.deaths),
                         n_nodes=self.config.n_nodes,
                         strategy=self.config.strategy,
                         reclaims=list(self.reclaims),
                         shuffle_bytes=dict(self.shuffle_bytes),
                         shuffle_bytes_local=dict(self.shuffle_bytes_local),
                         chain_id=self.chain_id,
                         speculation={
                             "attempts": self.spec_attempts,
                             "wins": self.spec_wins,
                             "wasted_bytes": self.spec_wasted_bytes,
                             "pre_replicated": self.pre_replications,
                             "throttled": dict(self.pool.throttled),
                         },
                         cancelled_commits=self.cancelled_commits)

    def _handle_death(self, node: int) -> None:
        self.pool.on_death(node)  # no-op if another chain got there first
        self.deaths.append((self.pool.now(), node))
        if not self.pool.alive:
            raise RuntimeError("no surviving workers; chain unrecoverable")
        self.registry.record_death(node, self.done_jobs)
        self.hooks("death", node=node)

    def _run_wave(self, jobs: list[int], kind: str = "run") -> None:
        """Run a wave of dependency-ready jobs, reusing whatever
        committed outputs survive.  The wave's map tasks dispatch as one
        batch and its reduce tasks as another, so independent DAG
        branches genuinely overlap across workers; a single-job wave is
        byte-for-byte the classic linear job loop (same phase names,
        same dispatch order)."""
        chain = self.config.chain
        jobs = sorted(jobs)
        label = "+".join(map(str, jobs))
        t_start = time.monotonic()
        spans = {job: self.tracer.span("job", f"job-{job}", job=job,
                                       kind=kind) for job in jobs}
        outcome = "cancelled"
        try:
            for job in jobs:
                self.hooks("job-start", job=job, kind=kind)
                if self.fault_plan and kind == "run":
                    self.fault_plan.arm_job_start(job, time.monotonic())
            map_cmds = {}
            for job in jobs:
                blocks = self._blocks_for(job)
                todo = [b for b in blocks
                        if (job, b.task_id)
                        not in self.registry.map_outputs]
                map_cmds.update(self._map_commands(job, todo))
            self._run_tasks(map_cmds, phase=f"map-{label}")
            for job in jobs:
                self.hooks("maps-done", job=job)

            alive = sorted(self.pool.alive)
            cmds = {}
            for job in jobs:
                sources = self._sources(job)
                for partition in range(chain.n_partitions):
                    if self.registry.covered(job, partition):
                        continue
                    node = alive[partition % len(alive)]
                    cmds[("reduce", job, partition, 0, 1)] = (
                        node, self._reduce_command(job, partition, 0, 1,
                                                   sources))

            def dispatched() -> None:
                for job in jobs:
                    self.hooks("reduce-dispatch", job=job)

            self._run_tasks(cmds, phase=f"reduce-{label}",
                            after_send=dispatched)
            for job in jobs:
                if self.config.replication_for(job) > 1:
                    self._replicate_job_output(job)
                    if self.config.is_anchor(job) \
                            and self.config.hybrid_reclaim:
                        self._reclaim_behind(job)
            self._pre_replicate_suspected()
            outcome = "ok"
        finally:
            for span in spans.values():
                span.end(outcome=outcome)
        wall = (time.monotonic() - t_start) / len(jobs)
        for job in jobs:
            self.done_jobs.add(job)
            self.job_times.append((job, kind, wall))
            self.hooks("job-commit", job=job, kind=kind)

    # ---------------------------------------------------------- replication
    def _replica_commands(self, entries,
                          copies: Optional[int] = None) -> dict:
        """Replication commands bringing each piece up to ``copies``
        holders (default: its job's target): each missing copy is
        fetched from the primary holder by the target node over the
        shuffle transport.  Targets round-robin over the healthy
        non-holders so copies spread instead of piling onto one peer;
        only when none is left does a suspected-slow non-holder take
        one — any second copy beats none."""
        alive = sorted(self.pool.alive)
        suspected = self.pool.suspected_since(self.started)
        cmds = {}
        rr = 0
        for entry in entries:
            want = min(copies or self.registry.replicated_jobs.get(
                entry.job, self.config.replication_for(entry.job)),
                len(alive))
            holders = self.registry.holders(*entry.key)
            healthy = [n for n in alive
                       if n not in holders and n not in suspected]
            slow = [n for n in alive if n not in holders and n in suspected]
            for _ in range(want - len(holders)):
                candidates = healthy or slow
                if not candidates:
                    break
                node = candidates.pop(rr % len(candidates))
                rr += 1
                cmds[("replicate", *entry.key, node)] = (
                    node, self._replicate_command(entry, node))
        return cmds

    def _replicate_job_output(self, job: int) -> None:
        """Copy ``job``'s committed pieces to its replication target
        (REPL-k: every job; HYBRID: the anchor jobs).  The job only
        counts as replication-tracked once every copy has committed, so
        a death mid-replication simply re-enters the job and dispatches
        the still-missing copies."""
        entries = [e for plist in self.registry.pieces.get(job, {}).values()
                   for e in plist]
        self._run_tasks(
            self._replica_commands(entries), phase=f"replicate-{job}",
            after_send=lambda: self.hooks("replicate-dispatch", job=job))
        self.registry.mark_replicated(
            job, self.config.replication_for(job))
        self.tracer.instant("cascade", "replicated", job=job,
                            target=self.config.replication_for(job),
                            anchor=self.config.is_anchor(job))

    def _under_replicated(self) -> list:
        return self.registry.under_replicated(len(self.pool.alive))

    def _re_replicate(self) -> None:
        """Restore lost copies of replication-tracked pieces after a
        death (the HDFS re-replication the REPL baselines lean on, and
        what keeps hybrid anchors intact across repeated failures)."""
        entries = self._under_replicated()
        jobs = sorted({e.job for e in entries})
        t_start = time.monotonic()
        span = self.tracer.span("cascade", "re-replicate", jobs=jobs,
                                pieces=len(entries))
        outcome = "interrupted"
        try:
            self._run_tasks(self._replica_commands(entries),
                            phase="re-replicate")
            outcome = "ok"
        finally:
            span.end(outcome=outcome)
        wall = time.monotonic() - t_start
        for job in jobs:
            self.job_times.append((job, "re-replicate", wall / len(jobs)))

    def _reclaim_behind(self, anchor: int) -> None:
        """Hybrid reclamation (§IV-C): with ``anchor``'s output safely
        replicated, delete with real unlinks the persisted map outputs
        of jobs every consumer of which is shielded behind an intact
        anchor, and the reducer pieces of jobs no unshielded anchor
        still reduces from (``hybrid_reclaimable`` — the graph cut that
        reduces to ``map < anchor, piece < anchor - 1`` on a linear
        chain).  Files a live recovery could still read are never
        touched — they are the recovery floor."""
        map_jobs, piece_jobs = hybrid_reclaimable(
            self.graph, self.done_jobs | {anchor},
            self._intact_anchors())
        if not map_jobs:
            return
        self.registry.reclaim_job_sets(map_jobs, piece_jobs)
        cmds = {}
        for node in sorted(self.pool.alive):
            cmds[("reclaim", anchor, node)] = (node, {
                "op": "reclaim", "anchor": anchor,
                "map_jobs": sorted(map_jobs),
                "piece_jobs": sorted(piece_jobs)})
        freed_box = [0]
        self._run_tasks(cmds, phase=f"reclaim-{anchor}",
                        on_freed=lambda n: freed_box.__setitem__(
                            0, freed_box[0] + n))
        self.reclaims.append((anchor, freed_box[0]))
        self.tracer.instant("cascade", "reclaimed", anchor=anchor,
                            bytes=freed_box[0])

    # ------------------------------------------------------------- recovery
    def _intact_anchors(self) -> list[int]:
        """Hybrid anchors whose replicated output is currently intact —
        fully covered with no outstanding damage — and therefore bound
        the recomputation cascade from below."""
        if self.config.strategy != "hybrid":
            return []
        chain = self.config.chain
        return [j for j in sorted(self.registry.replicated_jobs)
                if not any(self.registry.damage.get(j, {}).values())
                and self.registry.coverage_complete(j, chain.n_partitions)]

    def _cascade_jobs(self) -> list[int]:
        """Damaged jobs the live cascade must recompute, ascending.

        Damage filed for a job upstream of an intact one is outside the
        cascade (paper §IV-A: its output is not needed while its
        consumer survives).  It stays filed — a later death can damage
        the jobs in between and re-join it to a contiguous run — but it
        must not drive the run loop or a recovery pass, or the chain
        would spin recovering nothing.  An intact hybrid anchor bounds
        the cascade the same way (§IV-C).  The cut runs over the real
        dependency edges: a damaged job joins only when a sink, an
        undone consumer, or a cascading consumer still needs it."""
        return cascade_jobs(self.graph, self.done_jobs,
                            self.registry.damaged_jobs(),
                            intact_anchors=self._intact_anchors())

    def _recover(self) -> None:
        jobs = self._cascade_jobs()
        if not self.config.recomputes \
                and self.config.strategy != "optimistic":
            raise RuntimeError(
                f"irrecoverable data loss under {self.config.strategy}: "
                f"every replica of some piece in jobs {jobs} is gone "
                f"(replication was insufficient)")
        self.hooks("recovery-start", jobs=jobs)
        span = self.tracer.span("cascade", "recovery", jobs=jobs,
                                strategy=self.config.strategy)
        outcome = "interrupted"
        try:
            # topological levels: jobs inside a level are independent
            # and recompute as one combined wave (parallel branches);
            # each level sees its in-cascade parents already repaired
            for level in self.graph.topo_levels(jobs):
                if self.config.strategy == "optimistic":
                    self._rerun_jobs(level)
                else:
                    self._recompute_jobs(level)
            outcome = "ok"
        finally:
            span.end(outcome=outcome)

    def _rerun_jobs(self, jobs: list[int]) -> None:
        """OPTIMISTIC recovery: re-execute whole damaged jobs (one
        independent level per call)."""
        chain = self.config.chain
        for job in jobs:
            self.tracer.instant("cascade", "rerun-job", job=job)
            self.registry.drop_job(job)
            # keep the job filed as damaged until the rerun commits: if
            # a second death interrupts it, the next recovery pass must
            # still see this (now fully dropped) job as needing
            # re-execution
            self.registry.damage[job] = {
                p: [(0, 1)] for p in range(chain.n_partitions)}
        self._sweep_job_files(jobs)
        self._run_wave(list(jobs), kind="rerun")
        for job in jobs:
            self.registry.damage[job] = {}

    def _sweep_job_files(self, jobs: list[int]) -> None:
        """Delete dropped jobs' files from every surviving node's disk.
        ``drop_job`` forgets the *metadata* only; without the sweep the
        job's map slices and reducer pieces linger as orphans across
        reruns — leaking storage and hiding any accidental stale-path
        read (a rerun may place work on different nodes)."""
        cmds = {}
        for job in jobs:
            for node in sorted(self.pool.alive):
                cmds[("drop-job", job, node)] = (
                    node, {"op": "drop-job", "job": job})
        self._run_tasks(cmds,
                        phase=f"sweep-{'+'.join(map(str, jobs))}")

    def _recompute_jobs(self, jobs: list[int]) -> None:
        """RCMP recovery: re-execute exactly what the planner says, for
        one independent level of the cascade — the levels' map tasks
        dispatch as one batch and their reduces as another, so damaged
        sibling branches recompute in parallel."""
        chain = self.config.chain
        jobs = sorted(jobs)
        label = "+".join(map(str, jobs))
        t_start = time.monotonic()
        plans: dict[int, Any] = {}
        map_cmds: dict = {}
        for job in jobs:
            blocks = self._blocks_for(job)
            plan = plan_job_recovery(
                job, self.registry.damage[job],
                all_map_tasks=[b.task_id for b in blocks],
                present_map_tasks=[t for (j, t) in
                                   self.registry.map_outputs if j == job],
                alive=self.pool.alive,
                split_ratio=chain.split_ratio)
            plans[job] = plan
            self.tracer.instant(
                "cascade", "recompute-plan", job=job,
                maps=len(plan.map_tasks), reduces=len(plan.reduces),
                split_partitions=list(plan.split_partitions))
            by_task = {b.task_id: b for b in blocks}
            map_cmds.update(self._map_commands(
                job, [by_task[t] for t in plan.map_tasks]))
        spans = {job: self.tracer.span("job", f"job-{job}-recompute",
                                       job=job, kind="recompute")
                 for job in jobs}
        outcome = "cancelled"
        try:
            self._run_tasks(map_cmds, phase=f"recompute-map-{label}")
            cmds = {}
            for job in jobs:
                sources = self._sources(job)
                for spec in plans[job].reduces:
                    cmds[("reduce", job, spec.partition, spec.split_index,
                          spec.n_splits)] = (
                        spec.node,
                        self._reduce_command(job, spec.partition,
                                             spec.split_index,
                                             spec.n_splits, sources))
            # Buffer piece commits; merge only when the whole level
            # lands, so a mid-recovery death restarts from the same
            # inventory.
            overlay: list[PieceEntry] = []
            self._run_tasks(cmds, phase=f"recompute-reduce-{label}",
                            on_piece=overlay.append)
            for entry in overlay:
                self.registry.add_piece(entry)
            for job in jobs:
                self.registry.damage[job] = {}
            outcome = "ok"
        finally:
            for span in spans.values():
                span.end(outcome=outcome)
        wall = (time.monotonic() - t_start) / len(jobs)
        for job in jobs:
            self.job_times.append((job, "recompute", wall))
        if self.config.fig5_guard:
            for job in jobs:
                for partition in plans[job].split_partitions:
                    self._invalidate_consumers(job, partition)

    def _invalidate_consumers(self, job: int, partition: int) -> None:
        """The Fig. 5 guard on real storage: drop every consumer's map
        outputs derived from a split-regenerated partition of ``job``
        (a DAG partition may feed several consumers, each reading it at
        its own parent position)."""
        for consumer in self.graph.consumers(job):
            doomed = consumer_invalidations(
                ((t, m.origin) for (j, t), m in
                 self.registry.map_outputs.items() if j == consumer),
                job, partition,
                parent_pos=self.graph.parent_pos(consumer, job))
            cmds = {}
            for task_id in doomed:
                entry = self.registry.drop_map(consumer, task_id)
                self.tracer.instant("cascade", "invalidate-map",
                                    job=consumer, task=task_id,
                                    node=entry.node,
                                    split_source=[job, partition])
                if entry.node in self.pool.alive:
                    cmds[("drop", consumer, task_id)] = (
                        entry.node,
                        {"op": "drop", "job": consumer, "task": task_id})
            self._run_tasks(cmds, phase=f"invalidate-{consumer}")

    # ------------------------------------------------------------- dispatch
    def _map_commands(self, job: int,
                      blocks: list[BlockSpec]) -> dict:
        chain = self.config.chain
        alive = sorted(self.pool.alive)
        # a block of chain input names what regenerates it, so a worker
        # needs no per-chain state to run any chain's map
        chain_input = (chain.seed, chain.records_per_node, chain.value_size)
        cmds = {}
        for block in blocks:
            node = self.map_assignment(job, block.task_id, block.node)
            if node not in self.pool.alive:
                # re-home a dead node's blocks across *all* survivors
                # (paper §IV: recompute on every surviving node)
                node = alive[block.task_id % len(alive)]
            cmd = {"op": "map", "job": job, "task": block.task_id,
                   "origin": block.origin, "source": block.source,
                   "n_partitions": chain.n_partitions}
            if block.source[0] == "input":
                cmd["input"] = chain_input
            cmds[("map", job, block.task_id)] = (node, cmd)
        return cmds

    def _reduce_command(self, job: int, partition: int, split_index: int,
                        n_splits: int, sources: list) -> dict:
        return {"op": "reduce", "job": job, "partition": partition,
                "split": split_index, "n_splits": n_splits,
                "sources": sources}

    @staticmethod
    def _replicate_command(entry: PieceEntry, target: int) -> dict:
        """``target`` copies ``entry``'s piece from its primary holder."""
        return {"op": "replicate", "job": entry.job,
                "partition": entry.partition, "split": entry.split_index,
                "n_splits": entry.n_splits, "source": entry.node,
                "target": target, "source_chain": entry.chain}

    def _sources(self, job: int) -> list[tuple[int, int]]:
        return [(t, self.registry.map_outputs[(job, t)].node)
                for t in self.registry.map_tasks_of(job)]

    def _blocks_for(self, job: int) -> list[BlockSpec]:
        chain = self.config.chain
        return self.registry.blocks_for(job, self.config.n_nodes,
                                        chain.records_per_node,
                                        chain.records_per_block,
                                        parents=self.graph.parents(job))

    def _commit_table(self, on_piece, on_freed) -> dict[str, Callable]:
        """op -> ``fn(evt, cmd)`` registering one committed task's
        result; ``cmd`` is the stamped command the event answers."""
        add_piece = on_piece or self.registry.add_piece
        freed = on_freed or (lambda n: None)
        return {
            "map": lambda evt, cmd: self.registry.add_map(MapEntry(
                *evt.key[1:], evt.node, cmd["origin"], evt.result)),
            "reduce": lambda evt, cmd: add_piece(PieceEntry(
                *evt.key[1:], evt.node, evt.result)),
            "replicate": lambda evt, cmd: self.registry.add_replica(
                *evt.key[1:5], evt.node),
            "drop": lambda evt, cmd: None,
            "drop-job": lambda evt, cmd: freed(evt.result),
            "reclaim": lambda evt, cmd: freed(evt.result),
        }

    def _run_tasks(self, cmds: dict, phase: str,
                   after_send: Optional[Callable[[], None]] = None,
                   on_piece: Optional[Callable[[PieceEntry], None]] = None,
                   on_freed: Optional[Callable[[int], None]] = None) -> None:
        """Dispatch a batch of commands and pump until all complete.

        Completed map outputs register immediately (they are durable and
        reusable whatever happens next); reducer pieces go through
        ``on_piece`` when given (recovery overlays) or register directly;
        committed replicas register on arrival; ``on_freed`` receives the
        bytes each reclaim/sweep reply reports.
        Raises :class:`NodeDeath` as soon as one is declared (pumped
        inline in single-chain mode, queued by the service router in
        service mode)."""
        self._raise_pending_death()
        # a throttle due by now lands ahead of the batch: a node's share
        # is one run, which a throttle queued behind it would miss whole
        self.pool.deliver_throttles()
        commit = self._commit_table(on_piece, on_freed)
        outstanding: dict[tuple, tuple[int, dict]] = {}
        spans: dict[tuple, Any] = {}
        dispatched_at: dict[tuple, float] = {}
        shares: dict[int, list[dict]] = {}
        for key, (node, cmd) in cmds.items():
            outstanding[key] = (node, dict(cmd, key=key,
                                           epoch=self.pool.epoch,
                                           chain=self.chain_id))
            shares.setdefault(node, []).append(outstanding[key][1])
        for node, share in shares.items():
            # a node's share is one message, so its worker sees the whole
            # share at once: its map commands become one run (a share of
            # one goes as the plain command, like every other dispatch)
            self.pool.dispatch(node, share if len(share) > 1 else share[0])
            now = time.monotonic()
            for cmd in share:
                key = cmd["key"]
                dispatched_at[key] = now
                if self.tracer.enabled:
                    spans[key] = self.tracer.span(
                        "task", f"{phase}:{':'.join(map(str, key))}",
                        tid=node, phase=phase)
        if after_send is not None:
            after_send()
        attempts: dict[tuple, int] = {}
        retry_at: dict[tuple, float] = {}
        #: task key -> backup node of an in-flight speculative attempt
        backups: dict[tuple, int] = {}
        #: committed task walls this batch (speculation's median baseline)
        durations: list[float] = []
        total = len(outstanding)
        last_progress = time.monotonic()
        while outstanding:
            now = time.monotonic()
            if now - last_progress > self.config.io_timeout:
                raise RuntimeError(
                    f"dispatch stalled in {phase}: "
                    f"{sorted(outstanding)} outstanding")
            for key in [k for k, t in retry_at.items() if t <= now]:
                del retry_at[key]
                if key in outstanding:
                    self.pool.dispatch(outstanding[key][0],
                                       dict(outstanding[key][1]))
            if self.config.speculation:
                self._maybe_speculate(outstanding, backups, dispatched_at,
                                      durations, total, now)
            evt = self._next_event()
            if evt is None:
                continue
            key = evt.key
            if (evt.epoch != self.pool.epoch or evt.chain != self.chain_id
                    or key not in outstanding):
                # cancelled work, another batch's straggler, or a
                # resolved speculative race's loser: never registered
                self._settle_stale(evt)
                continue
            original, cmd = outstanding[key]
            if evt.kind == "task-failed":
                if backups.get(key) == evt.node:
                    # the backup attempt failed; the original still runs —
                    # clear the marker so the tail may speculate again
                    del backups[key]
                    continue
                # re-dispatch with backoff until the fetch source's death
                # is declared by the pump or io_timeout judges the phase
                # stalled — never abandon a task while both are pending
                attempts[key] = attempts.get(key, 0) + 1
                retry_at[key] = time.monotonic() + min(
                    0.05 * attempts[key], 0.5)
                continue
            if evt.kind == "task-error":
                raise RuntimeError(
                    f"worker {evt.node} hit a software error in {key[0]} "
                    f"task {key}:\n{evt.result}")
            self._count_shuffle(phase, evt.fetched, evt.local)
            commit[key[0]](evt, cmd)
            last_progress = time.monotonic()
            if key[0] in ("map", "reduce"):
                durations.append(last_progress - dispatched_at[key])
                if key in backups:
                    self._resolve_speculation(
                        key, winner=evt.node, original=original,
                        backup=backups.pop(key))
            if key in spans:
                extra = {"node": evt.node, "pid": evt.pid}
                if key[0] == "reduce":
                    extra.update(split=key[3], n_splits=key[4])
                spans[key].end(**extra)
            del outstanding[key]

    def _count_shuffle(self, phase: str, fetched: int,
                       local: int = 0) -> None:
        """Credit one committed task's shuffle traffic to its phase:
        ``fetched`` crossed a loopback socket, ``local`` was resolved
        in-process (the node's own store, memory tier first)."""
        if fetched:
            self.shuffle_bytes[phase] = (
                self.shuffle_bytes.get(phase, 0) + fetched)
        if local:
            self.shuffle_bytes_local[phase] = (
                self.shuffle_bytes_local.get(phase, 0) + local)

    # ----------------------------------------------------------- speculation
    def _maybe_speculate(self, outstanding: dict, backups: dict,
                         dispatched_at: dict, durations: list,
                         total: int, now: float) -> None:
        """Launch backup attempts for tail tasks on idle healthy slots.

        A task earns a backup when its original sits on a suspected-slow
        node and is older than ``SPECULATION_MIN_AGE``, or — with half
        the batch committed — when its age exceeds ``SPECULATION_SLOWDOWN
        x`` the batch's median committed wall (Hadoop/LATE semantics).
        First commit wins through the normal completion path; this only
        adds attempts, it never cancels one."""
        if len(self.pool.alive) < 2:
            return
        suspected = self.pool.suspected_since(self.started)
        done = total - len(outstanding)
        median = sorted(durations)[len(durations) // 2] \
            if durations else None
        for key, (node, cmd) in list(outstanding.items()):
            if key in backups or key[0] not in ("map", "reduce"):
                continue
            if node in suspected:
                threshold = SPECULATION_MIN_AGE
            elif median is not None and done * 2 >= total:
                threshold = max(SPECULATION_MIN_AGE,
                                SPECULATION_SLOWDOWN * median)
            else:
                continue
            age = now - dispatched_at.get(key, now)
            if age < threshold:
                continue
            backup = self._backup_candidate(node, suspected)
            if backup is None:
                return  # no healthy idle slot anywhere: retry next tick
            self.pool.dispatch(backup, dict(cmd))
            backups[key] = backup
            self.spec_attempts += 1
            self.tracer.instant("cascade", "speculative-attempt",
                                key=[str(k) for k in key], original=node,
                                backup=backup, age=round(age, 4))

    def _backup_candidate(self, original: int,
                          suspected: set[int]) -> Optional[int]:
        """The least-loaded healthy node with an idle slot, or None.

        None means every healthy peer is saturated: the backup is NOT
        queued — queuing it behind busy slots (worst case, behind the
        straggler itself) would add load without cutting the tail."""
        slots = self.config.resolved_task_slots
        candidates = [n for n in sorted(self.pool.alive)
                      if n != original and n not in suspected
                      and self.pool.load(n) < slots]
        if not candidates:
            if not self._spec_warned:
                self._spec_warned = True
                warnings.warn(
                    "speculation is a no-op right now: no healthy idle "
                    "slot (raise task_slots or cluster size to give "
                    "backups somewhere to run)", stacklevel=2)
            return None
        return min(candidates, key=lambda n: (self.pool.load(n), n))

    def _resolve_speculation(self, key: tuple, winner: int, original: int,
                             backup: int) -> None:
        """First commit won the race; remember the loser so its late
        duplicate event is swallowed and its partial output swept."""
        backup_won = winner == backup
        loser = original if backup_won else backup
        if backup_won:
            self.spec_wins += 1
        self._spec_losers[key] = loser
        self.tracer.instant("cascade", "speculative-result",
                            key=[str(k) for k in key], winner=winner,
                            loser=loser, backup_won=backup_won)

    def _settle_stale(self, evt: Event) -> None:
        """An event that missed the epoch/chain/outstanding guard.  If
        it is the losing attempt of a resolved speculative race, account
        its wasted work and sweep its orphan output from the loser's
        disk (the drop paths, stamped with the current epoch); anything
        else is cancelled work and moot — a task that still *committed*
        under a cancelled epoch is counted, a ``"cancelled"`` failure
        (skipped or aborted on the worker) wrote nothing."""
        if evt.chain != self.chain_id:
            return
        key, node = evt.key, evt.node
        if evt.kind in TASK_DONE and evt.epoch < self.pool.epoch:
            self.cancelled_commits += 1
            self.tracer.instant("cascade", "cancelled-commit", node=node,
                                key=[str(k) for k in key])
        if evt.kind == "piece-dropped":
            _, _, job, partition, split, n_splits = key
            self.tracer.instant("cascade", "speculation-swept", node=node,
                                job=job, partition=partition, split=split,
                                n_splits=n_splits, freed=evt.result)
            return
        if self._spec_losers.get(key) != node:
            return
        del self._spec_losers[key]
        if evt.kind == "task-failed":
            # the losing attempt failed outright: it wrote nothing, so
            # there is nothing left to sweep
            return
        self.spec_wasted_bytes += evt.fetched
        self.tracer.instant("cascade", "speculation-loser",
                            key=[str(k) for k in key], node=node,
                            wasted=evt.fetched)
        if node in self.pool.alive:
            sweep = ({"op": "drop", "job": key[1], "task": key[2]}
                     if key[0] == "map" else
                     {"op": "drop-piece", "job": key[1],
                      "partition": key[2], "split": key[3],
                      "n_splits": key[4]})
            # its own key: the reply must never pass for the task's
            # completion should the task be outstanding again by then
            self.pool.dispatch(node, dict(sweep, key=("sweep", *key),
                                          epoch=self.pool.epoch,
                                          chain=self.chain_id))

    def _drain_spec_losers(self, deadline: float = 2.0) -> None:
        """Before the final checksum, wait briefly for resolved races'
        losing attempts to surface so their duplicates are swallowed and
        their partial output swept.  Dead losers left nothing the
        registry references; their entries are simply dropped.  No task
        is outstanding here, so every event is stale by construction."""
        t_end = time.monotonic() + deadline
        while self._spec_losers and time.monotonic() < t_end:
            self._spec_losers = {k: n for k, n in
                                 self._spec_losers.items()
                                 if n in self.pool.alive}
            if not self._spec_losers:
                break
            try:
                evt = self._next_event()
            except NodeDeath as death:
                self._handle_death(death.node)
                break
            if evt is not None:
                self._settle_stale(evt)

    def _pre_replicate_suspected(self) -> None:
        """Eagerly copy pieces held by a suspected-slow node to a
        healthy peer (existing replicate transport ops): if the
        straggler later dies, survivors already hold its outputs and
        replica promotion makes the death cascade nothing.  One-shot:
        the job is not marked replication-tracked, so the background
        re-replication invariant is untouched."""
        suspected = self.pool.suspected_since(self.started)
        if not suspected or len(self.pool.alive) < 2:
            return
        entries = [e for job_pieces in self.registry.pieces.values()
                   for plist in job_pieces.values() for e in plist
                   if e.node in suspected
                   and len(self.registry.holders(*e.key)) < 2]
        cmds = self._replica_commands(entries, copies=2)
        if not cmds:
            return
        self.tracer.instant("cascade", "pre-replicate",
                            suspected=sorted(suspected),
                            pieces=len(cmds))
        self._run_tasks(cmds, phase="pre-replicate")
        self.pre_replications += len(cmds)

    # -------------------------------------------------------------- queries
    def _sink_pieces(self) -> dict[int, list[tuple[int, bytes]]]:
        """``(record count, bytes)`` of every stored sink piece, read
        back from the nodes' files (registry-driven, like any DFS read):
        the union over sink jobs, keyed ``sink_pos * STRIDE + partition``
        so a single-sink chain keeps plain partition keys (and
        checksums) unchanged."""
        chain = self.config.chain
        out: dict[int, list[tuple[int, bytes]]] = {}
        for pos, sink in enumerate(sorted(self.graph.sinks())):
            last = self.registry.pieces.get(sink)
            if last is None or not self.registry.coverage_complete(
                    sink, chain.n_partitions):
                raise RuntimeError("chain has not completed")
            for partition, plist in last.items():
                pieces = out[pos * STRIDE + partition] = []
                for entry in plist:
                    # an adopted piece (cache hit) lives in its donor
                    # chain's namespace; everything else in our own
                    namespace = entry.chain if entry.chain is not None \
                        else self.chain_id
                    store = NodeStore(self.pool.workdir, entry.node,
                                      chain=namespace)
                    pieces.append((entry.n_records,
                                   store.read_piece(*entry.key)))
        return out

    def final_output(self) -> dict[int, list[Record]]:
        """The computation's output as sorted records per output key."""
        return {key: sorted(record for _, data in pieces
                            for record in iter_records(data))
                for key, pieces in self._sink_pieces().items()}

    def checksum(self) -> str:
        """``chain_checksum(self.final_output())``, hashed from the
        stored bytes wherever one piece covers a partition."""
        return stored_checksum(self._sink_pieces())


class Coordinator:
    """Drives one multi-job chain over real worker processes: a private
    :class:`WorkerPool` (``.pool``) plus one :class:`ChainRun`
    (``.chain_run``); the multi-chain front is
    :class:`repro.runtime.service.ChainService`."""

    def __init__(self, config: RuntimeConfig, workdir: str | Path,
                 tracer: Optional[Tracer] = None,
                 hooks: Optional[Hooks] = None,
                 fault_model: Optional[FaultModel] = None,
                 fault_seed: int = 0, fault_time_scale: float = 1.0,
                 map_assignment: Optional[Callable[[int, int, int], int]]
                 = None):
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = (LiveFaultPlan(fault_model, seed=fault_seed,
                                     time_scale=fault_time_scale)
                       if fault_model is not None else None)
        self.pool = WorkerPool(config, workdir, tracer=self.tracer,
                               faults=self.faults)
        self.chain_run = ChainRun(config, self.pool, tracer=self.tracer,
                                  hooks=hooks,
                                  map_assignment=map_assignment,
                                  fault_plan=self.faults)

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "Coordinator":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def start(self) -> None:
        self.pool.start()

    def shutdown(self) -> None:
        self.pool.shutdown()

    # ---------------------------------------------------------- chain logic
    def run_chain(self) -> RunReport:
        """Execute the chain end to end, recovering from every death."""
        if self.faults:
            self.faults.arm_chain_start(time.monotonic())
        return self.chain_run.run()

    def kill_node(self, node: int) -> None:
        self.pool.kill_node(node)

    def throttle_node(self, node: int, factor: float) -> None:
        self.pool.throttle_node(node, factor)

    def final_output(self) -> dict[int, list[Record]]:
        return self.chain_run.final_output()

    def checksum(self) -> str:
        return self.chain_run.checksum()
