"""Multi-tenant chain service: many chains, one shared worker pool.

The single-chain :class:`~repro.runtime.coordinator.Coordinator` forks a
worker set, runs one chain, and tears everything down.  RCMP's setting
is the opposite — a resident cluster absorbing heavy traffic from many
users — so :class:`ChainService` keeps one :class:`WorkerPool` of
workers alive and multiplexes submitted chains over it:

* **Admission** is FIFO by default, with an optional ``fair`` policy
  (least-loaded tenant first) and a ``max_concurrent`` cap on chains
  running simultaneously.
* **Isolation**: each admitted chain gets a unique id that namespaces
  its files on every node (``node000/chains/<id>/...``), rides on every
  task command, and is echoed in every worker event, so one worker can
  interleave runs of several chains without mixing streams.  Each
  chain owns its own :class:`~repro.runtime.storage.ClusterRegistry`
  and :class:`~repro.runtime.coordinator.RunReport`.
* **Recovery isolation**: a node death is declared once by the pool and
  fanned out to every running chain.  Each chain files damage against
  *its own* registry — a chain with no pieces on the dead node records
  nothing and resumes where it was (its job timeline shows plain
  ``run`` entries only); chains that did lose pieces run the normal
  recomputation cascade, concurrently, on the surviving workers.
* **Faults**: :class:`MTBFKills` injects service-level mean-time-
  between-failures arrivals (seeded exponential gaps), the long-running
  analog of the per-chain fault plans.  ``replace_dead=True`` respawns
  a replacement worker for each dead node id so a long-lived service
  does not bleed capacity.

The front door is deliberately small: one JSON request per TCP
connection, newline-terminated (``serve`` / :func:`request`), driven by
the ``rcmp-repro serve | submit | status`` CLI.
"""

from __future__ import annotations

import dataclasses
import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.localexec.engine import LocalJobConfig
from repro.obs import NULL_TRACER, Tracer
from repro.runtime.cache import (
    CacheRegistry,
    chain_fingerprints,
    scan_chain_sequence,
)
from repro.runtime.coordinator import (
    POOL_FIELDS,
    ChainRun,
    NodeDeath,
    RunReport,
    RuntimeConfig,
    WorkerPool,
)
from repro.runtime.protocol import Event

QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
POLICIES = ("fifo", "fair")

#: front-door request cap: one JSON submit/status/wait line has no
#: business being this large — beyond it the reply is a structured
#: error instead of an unbounded buffer
MAX_REQUEST_BYTES = 1 << 20


class MTBFKills:
    """Poisson failure arrivals for a long-lived pool: SIGKILL a random
    live worker with exponentially distributed gaps of mean ``mtbf``
    seconds.  Duck-types :class:`~repro.runtime.faults.LiveFaultPlan`'s
    ``due(now, alive)`` so :meth:`WorkerPool.pump` fires it natively.

    ``min_alive`` is a floor: an arrival that would leave fewer live
    workers is skipped (the clock still advances — skipped arrivals do
    not pile up into a burst)."""

    def __init__(self, mtbf: float, seed: int = 0, min_alive: int = 2):
        if mtbf <= 0:
            raise ValueError("mtbf must be positive seconds")
        if min_alive < 1:
            raise ValueError("min_alive must be >= 1")
        self.mtbf = mtbf
        self.min_alive = min_alive
        self._rng = random.Random(seed)
        self._next: Optional[float] = None

    def due(self, now: float, alive: set) -> list[int]:
        if self._next is None:
            self._next = now + self._rng.expovariate(1.0 / self.mtbf)
        victims: list[int] = []
        while self._next <= now:
            self._next += self._rng.expovariate(1.0 / self.mtbf)
            candidates = sorted(set(alive) - set(victims))
            if len(candidates) <= self.min_alive:
                continue
            victims.append(candidates[self._rng.randrange(
                len(candidates))])
        return victims


@dataclass
class ChainJob:
    """One submitted chain's lifecycle record."""

    id: str
    tenant: str
    config: RuntimeConfig
    state: str = QUEUED
    order: int = 0                      # FIFO position
    submitted: float = 0.0              # service-clock seconds
    started: Optional[float] = None
    finished: Optional[float] = None
    report: Optional[RunReport] = None
    error: Optional[str] = None
    run: Optional[ChainRun] = None
    inbox: Any = None
    #: False when submitted with ``no_cache`` — neither adopts nor admits
    use_cache: bool = True
    #: jobs skipped at admission via the cross-run cache
    adopted_jobs: int = 0
    done: threading.Event = field(default_factory=threading.Event)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "strategy": self.config.strategy,
            "n_jobs": self.config.chain.n_jobs,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "cached_jobs": self.adopted_jobs,
            "report": self.report.to_dict() if self.report else None,
            "error": self.error,
        }


class ChainService:
    """A resident pool of workers serving a queue of submitted chains."""

    def __init__(self, config: RuntimeConfig, workdir: str | Path,
                 policy: str = "fifo", max_concurrent: int = 4,
                 tracer: Optional[Tracer] = None,
                 faults=None, replace_dead: bool = False,
                 cache_budget: Optional[int] = None):
        """``config`` fixes the pool shape (n_nodes, transport
        knobs) and is the template submissions override per chain.
        ``faults`` is typically an :class:`MTBFKills`; ``replace_dead``
        respawns a replacement worker for every dead node id.
        ``cache_budget`` (bytes) enables the cross-run result cache:
        completed job outputs are kept under an LRU byte budget and
        adopted by later overlapping submissions.  ``None`` disables
        caching entirely."""
        if policy not in POLICIES:
            raise ValueError(f"unknown admission policy {policy!r}; "
                             f"expected one of {POLICIES}")
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.config = config
        self.policy = policy
        self.max_concurrent = max_concurrent
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.replace_dead = replace_dead
        self.pool = WorkerPool(config, workdir, tracer=self.tracer,
                               faults=faults)
        self.shutdown_requested = threading.Event()
        #: most chains ever RUNNING at once (bench asserts concurrency)
        self.running_peak = 0
        self._lock = threading.RLock()
        self._jobs: dict[str, ChainJob] = {}
        self._queue: list[ChainJob] = []
        self._running: dict[str, ChainJob] = {}
        self._tenant_admitted: dict[str, int] = {}
        self.cache: Optional[CacheRegistry] = None
        if cache_budget is not None:
            self.cache = CacheRegistry(workdir, cache_budget)
            self.cache.load()
        # never reissue a chain id whose namespace dirs exist from a
        # previous service incarnation in this workdir: a collision
        # would silently overwrite files cache entries still reference
        self._seq = scan_chain_sequence(workdir)
        self._stop = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self._server: Optional[socket.socket] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "ChainService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def start(self) -> None:
        self.pool.start()
        self._loop_thread = threading.Thread(target=self._loop,
                                             name="chain-service-loop",
                                             daemon=True)
        self._loop_thread.start()

    def shutdown(self, drain: bool = True) -> None:
        """Stop the service. ``drain`` waits for running chains first
        (queued chains are failed either way)."""
        with self._lock:
            for job in self._queue:
                job.state = FAILED
                job.error = "service shut down before admission"
                job.done.set()
            self._queue.clear()
            running = list(self._running.values())
        if drain:
            for job in running:
                job.done.wait()
        self._stop.set()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10.0)
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        self.pool.shutdown()

    # ------------------------------------------------------------ admission
    def submit(self, chain: Optional[LocalJobConfig] = None,
               tenant: str = "default", no_cache: bool = False,
               **overrides) -> ChainJob:
        """Queue a chain for execution; returns its :class:`ChainJob`.

        ``overrides`` are :class:`RuntimeConfig` fields applied over the
        service template (strategy, hybrid knobs, ...).  The pool shape
        is fixed at service start: overriding one of
        :data:`~repro.runtime.coordinator.POOL_FIELDS` is refused.
        ``no_cache`` opts this chain out of the cross-run cache — it
        neither adopts cached prefixes nor admits its outputs.
        Validation errors (unknown strategy, bad knobs, pool-shape
        overrides) raise here, at submission time, not in the service
        loop."""
        if self._stop.is_set():
            raise RuntimeError("service is shut down")
        fixed = sorted(POOL_FIELDS.intersection(overrides))
        if fixed:
            raise ValueError(
                f"cannot override {', '.join(fixed)} per chain: the "
                "pool's workers were forked with the service's value")
        if chain is not None:
            overrides["chain"] = chain
        config = dataclasses.replace(self.config, **overrides)
        with self._lock:
            self._seq += 1
            job = ChainJob(id=f"c{self._seq:04d}", tenant=tenant,
                           config=config, order=self._seq,
                           submitted=self.pool.now(),
                           use_cache=not no_cache)
            self._jobs[job.id] = job
            self._queue.append(job)
        if self._loop_thread is not None:
            # admit now, not at the loop's next pump timeout: on an idle
            # service nothing else would wake it
            self._admit_next()
        return job

    def _admit_next(self) -> None:
        """Admit queued chains while there is concurrency headroom."""
        while True:
            with self._lock:
                if not self._queue or \
                        len(self._running) >= self.max_concurrent:
                    return
                job = self._pick_locked()
                self._queue.remove(job)
                self._tenant_admitted[job.tenant] = \
                    self._tenant_admitted.get(job.tenant, 0) + 1
                job.state = RUNNING
                job.started = self.pool.now()
                self._running[job.id] = job
                self.running_peak = max(self.running_peak,
                                        len(self._running))
            job.run = ChainRun(job.config, self.pool,
                               chain_id=job.id, tracer=self.tracer)
            job.inbox = job.run.attach_inbox()
            self._adopt_cached_prefix(job)
            threading.Thread(target=self._drive, args=(job,),
                             name=f"chain-{job.id}", daemon=True).start()

    def _adopt_cached_prefix(self, job: ChainJob) -> None:
        """Hand the largest resident dependency-closed cached subgraph
        (the classic prefix on a linear chain) to the new chain.

        Only for replication-1 strategies (rcmp, optimistic, hybrid):
        adopted pieces are single-holder, so losing one must be
        recoverable by recomputation — a REPL-k chain would instead hit
        "irrecoverable data loss" on a piece it never replicated.
        Best-effort: a cache fault degrades to a cold run, never a
        failed chain."""
        if self.cache is None or not job.use_cache \
                or job.config.replication > 1:
            return
        try:
            fps = chain_fingerprints(job.config.chain,
                                     self.config.n_nodes)
            entries = self.cache.adopt(fps, job.id,
                                       graph=job.config.graph)
            if entries:
                job.adopted_jobs = job.run.adopt_prefix(entries)
        except Exception:  # noqa: BLE001 - cache is advisory
            self.cache.release(job.id)

    def _pick_locked(self) -> ChainJob:
        if self.policy == "fifo":
            return min(self._queue, key=lambda j: j.order)
        # fair-share: least-loaded tenant first — fewest chains running
        # now, then fewest ever admitted, then FIFO order
        running_by = {}
        for job in self._running.values():
            running_by[job.tenant] = running_by.get(job.tenant, 0) + 1
        return min(self._queue, key=lambda j: (
            running_by.get(j.tenant, 0),
            self._tenant_admitted.get(j.tenant, 0),
            j.order))

    def _close_chain(self, job: ChainJob) -> None:
        """One ``chain-close`` per worker drops the chain's caches, then
        sweeps its namespace files — sparing the reduce jobs the
        cross-run cache registered, so beyond the cache budget nothing
        grows the workdir.  (A dead node's files linger until its id is reused —
        there is no worker left to sweep them.)"""
        keep = sorted(self.cache.kept_jobs(job.id)) \
            if self.cache is not None else []
        for node in sorted(self.pool._links):
            self.pool.send(node, {"op": "chain-close", "chain": job.id,
                                  "keep": keep})

    # --------------------------------------------------------- service loop
    def _loop(self) -> None:
        """Pump the pool, route events to their chain, admit from the
        queue, and fan node deaths out to every running chain."""
        while not self._stop.is_set():
            self._admit_next()
            try:
                evt = self.pool.pump(timeout=0.02)
            except NodeDeath as death:
                self._on_death(death.node)
                continue
            if evt is not None:
                self._route(evt)

    def _route(self, evt: Event) -> None:
        """Hand a worker event to the running chain it names."""
        with self._lock:
            job = self._running.get(evt.chain)
        if job is not None:
            job.inbox.put(evt)
        # else: a straggler from a chain that already finished or died
        # mid-phase (stale by construction), or a pool-level event
        # (readiness carries no chain) — drop it

    def _on_death(self, node: int) -> None:
        if not self.pool.on_death(node):
            return
        if self.cache is not None:
            # every cached piece is a sole copy: entries touching the
            # dead node are invalid now.  For chains mid-adoption the
            # loss is just RCMP damage — their recovery recomputes it.
            self.cache.on_death(node)
        with self._lock:
            running = list(self._running.values())
        for job in running:
            job.run.notify_death(node)
        if self.replace_dead:
            # a replacement starts blank and needs nothing more: every
            # command carries what it takes to run
            self.pool.respawn(node)

    def _drive(self, job: ChainJob) -> None:
        """One chain's thread: run the state machine to completion."""
        try:
            job.report = job.run.run()
            job.state = DONE
        except BaseException as exc:  # noqa: BLE001 - recorded, not raised
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = FAILED
        finally:
            job.finished = self.pool.now()
            if self.cache is not None:
                try:
                    if job.state == DONE and job.use_cache:
                        self.cache.admit(
                            chain_fingerprints(job.config.chain,
                                               self.config.n_nodes),
                            job.id, job.run.registry)
                finally:
                    # unpin whatever this chain adopted (reaps doomed
                    # entries it was the last reader of)
                    self.cache.release(job.id)
            self._close_chain(job)
            with self._lock:
                self._running.pop(job.id, None)
            job.done.set()
            self._admit_next()  # the freed slot goes to the queue's head

    # -------------------------------------------------------------- queries
    def wait(self, job_id: str, timeout: Optional[float] = None) \
            -> ChainJob:
        job = self._jobs[job_id]
        if not job.done.wait(timeout):
            raise TimeoutError(f"chain {job_id} still {job.state} after "
                               f"{timeout}s")
        return job

    def status(self, job_id: Optional[str] = None) -> dict:
        with self._lock:
            if job_id is not None:
                return self._jobs[job_id].to_dict()
            return {
                "policy": self.policy,
                "max_concurrent": self.max_concurrent,
                "alive": sorted(self.pool.alive),
                "epoch": self.pool.epoch,
                "deaths": [[t, n] for t, n in self.pool.deaths],
                "throttled": {str(n): f
                              for n, f in self.pool.throttled.items()},
                "suspected": sorted(self.pool.suspected_slow()),
                "queued": len(self._queue),
                "running": len(self._running),
                "running_peak": self.running_peak,
                "cache": (self.cache.stats()
                          if self.cache is not None else None),
                "jobs": [j.to_dict() for j in self._jobs.values()],
            }

    # ------------------------------------------------------- TCP front door
    def serve(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Open the JSON front door; returns the bound port.  Protocol:
        one newline-terminated JSON request per connection, one JSON
        reply.  Ops: submit, status, wait, ping, shutdown."""
        self._server = socket.create_server((host, port))
        self.port = self._server.getsockname()[1]
        threading.Thread(target=self._accept_loop,
                         name="chain-service-door", daemon=True).start()
        return self.port

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._server.accept()
            except OSError:
                return  # socket closed by shutdown
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    def _handle(self, conn: socket.socket) -> None:
        with conn:
            try:
                data, total = b"", 0
                while not data.endswith(b"\n"):
                    got = conn.recv(65536)
                    if not got:
                        break
                    total += len(got)
                    if total <= MAX_REQUEST_BYTES:
                        data += got
                    elif got.endswith(b"\n") or total > \
                            64 * MAX_REQUEST_BYTES:
                        # oversized: discard (bounded) until the line
                        # ends so the close is clean — an unread-data
                        # RST could destroy the error reply in flight
                        break
                if total > MAX_REQUEST_BYTES:
                    raise ValueError(
                        f"request exceeds {MAX_REQUEST_BYTES} bytes")
                reply = self._dispatch_request(json.loads(data))
            except Exception as exc:  # noqa: BLE001 - wire it back
                reply = {"ok": False,
                         "error": f"{type(exc).__name__}: {exc}"}
            try:
                conn.sendall(json.dumps(reply).encode() + b"\n")
            except OSError:
                pass

    def _dispatch_request(self, req: dict) -> dict:
        op = req.get("op")
        if op == "ping":
            return {"ok": True}
        if op == "submit":
            chain = (LocalJobConfig(**req["chain"])
                     if req.get("chain") else None)
            job = self.submit(chain=chain,
                              tenant=req.get("tenant", "default"),
                              no_cache=bool(req.get("no_cache")),
                              **req.get("overrides", {}))
            return {"ok": True, "id": job.id}
        if op == "status":
            return {"ok": True, "status": self.status(req.get("id"))}
        if op == "wait":
            job = self.wait(req["id"], timeout=req.get("timeout"))
            return {"ok": True, "job": job.to_dict()}
        if op == "shutdown":
            self.shutdown_requested.set()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


def request(port: int, payload: dict,
            host: str = "127.0.0.1", timeout: float = 60.0) -> dict:
    """Send one front-door request and return the decoded reply."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(json.dumps(payload).encode() + b"\n")
        data = b""
        while not data.endswith(b"\n"):
            got = conn.recv(65536)
            if not got:
                break
            data += got
    reply = json.loads(data)
    if not reply.get("ok"):
        raise RuntimeError(f"service refused {payload.get('op')}: "
                           f"{reply.get('error')}")
    return reply


def wait_for_port(port: int, host: str = "127.0.0.1",
                  deadline: float = 10.0) -> None:
    """Block until the front door answers a ping (CLI/tests helper)."""
    t_end = time.monotonic() + deadline
    while True:
        try:
            request(port, {"op": "ping"}, host=host, timeout=1.0)
            return
        except OSError:
            if time.monotonic() > t_end:
                raise TimeoutError(
                    f"no chain service answering on {host}:{port}")
            time.sleep(0.05)
