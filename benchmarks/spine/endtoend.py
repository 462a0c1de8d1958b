"""Driving the four workloads from outside the program.

Only public lifecycle calls are used — ``Coordinator`` /
``ChainService`` construct, ``start``, ``run_chain`` / ``submit`` +
``wait``, ``shutdown`` — plus the ``hooks=`` and ``tracer=`` arguments
and the ``RunReport`` / ``ChainJob`` fields they hand back.  Every chain
is an *operation*: it fails when it raises, outlives its deadline, leaks
a child process or a work directory, or returns a checksum different
from the failure-free in-process ``LocalCluster`` reference.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import multiprocessing
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.faults.model import FaultModel
from repro.localexec import LocalCluster, LocalJobConfig
from repro.runtime import (
    ChainService,
    Coordinator,
    RuntimeConfig,
    chain_checksum,
)

from spec import N_NODES, Workload, smoke

#: a chain that runs this long is hung, not slow (the slowest workload's
#: chain takes ~10 s here; the driver kills a run at 180 s)
CHAIN_DEADLINE_S = 60.0

#: set-up is timed apart from the chains: SETUP_BATCHES samples, each the
#: mean of SETUP_BATCH consecutive set-ups.  One set-up reads ~17 or
#: ~37 ms (the pool's 20 ms pump tick hits it or not), and the median of
#: a coin flip is no statistic; batch means converge on the expectation.
SETUP_BATCHES = 5
SETUP_BATCH = 5


#: what ``host_kernel`` took on the first baseline's host while nothing
#: else ran there; calibrated seconds are seconds on that host
NOMINAL_KERNEL_S = 0.06


# --------------------------------------------------------------- host speed
def host_kernel() -> float:
    """Seconds a fixed kernel takes right now: md5 digests, dict
    grouping, sorts and joins — the workers' instruction mix, but none of
    the program's code, so no change to the program can move it."""
    t0 = time.perf_counter()
    groups: dict[int, list[bytes]] = {}
    for i in range(70_000):
        digest = hashlib.md5(b"%d" % i).digest()
        groups.setdefault(digest[0], []).append(digest)
    for digests in groups.values():
        b"".join(sorted(digests))
    return time.perf_counter() - t0


class HostSpeed:
    """How fast this host is during one run, against the nominal host.

    The same chain takes 3.0 s or 5.5 s on this 2-vCPU guest depending
    on what the neighbours do, for tens of minutes at a time — wider
    than any bound the contract allows — so every run times a fixed
    kernel between its chains and reports timings and rates scaled to
    the nominal host.  A run-wide mean, not a per-chain factor: one
    slice is as noisy as one chain."""

    def __init__(self) -> None:
        self.slices: list[float] = []

    def sample(self) -> None:
        self.slices += [host_kernel(), host_kernel()]

    @property
    def speed(self) -> float:
        """> 1 on a host faster than the nominal one."""
        return NOMINAL_KERNEL_S / statistics.mean(self.slices)

    def calibrate(self, metrics: dict) -> None:
        """Scale every timing (unit s) and rate (1/s) to the nominal
        host; the number as measured stays beside it as ``raw``."""
        for metric in metrics.values():
            scale = {"s": self.speed, "1/s": 1 / self.speed}.get(
                metric["unit"])
            if scale is None:
                continue
            metric["raw"] = metric["value"]
            for key in metric.keys() & {"value", "median", "q1", "q3"}:
                metric[key] *= scale


# ------------------------------------------------------------------ helpers
def chain_config(workload: Workload, seed: int) -> LocalJobConfig:
    return LocalJobConfig(
        n_jobs=workload.n_jobs, n_partitions=workload.n_partitions,
        records_per_node=workload.records_per_node,
        records_per_block=workload.records_per_block,
        value_size=workload.value_size, split_ratio=None, seed=seed)


@functools.lru_cache(maxsize=None)
def reference_checksum(chain: LocalJobConfig) -> str:
    """The oracle: the failure-free in-process run of the same chain."""
    cluster = LocalCluster(N_NODES, chain)
    cluster.run_chain()
    return chain_checksum(cluster.final_output())


def cpu_seconds() -> float:
    """User + system CPU of this process and every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def worker_peak_rss_mb() -> float:
    """Largest resident set of any reaped child (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def summarize(values: list[float], unit: str, better: str = "lower") -> dict:
    """A run's samples as one value: the quartile on the *fast* side.

    The host's noise is one-sided — a neighbour on the sibling
    hyperthread slows a chain by up to 1.5x for seconds at a time and
    nothing ever speeds one up — so the fast quartile says what the
    program costs and moves least when the neighbour's duty cycle does
    (spread over ten runs 0.15 against the median's 0.21).  The median,
    both quartiles and the sample count ride along."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"value": q1 if better == "lower" else q3, "unit": unit,
            "median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _reap_leaks(workdir: Path) -> Optional[str]:
    """After a repeat nothing may be left behind: no live child, no
    work directory.  Returns what leaked (and cleans it up)."""
    problems = []
    leaked = multiprocessing.active_children()
    if leaked:
        problems.append(f"{len(leaked)} child process(es) leaked")
        for proc in leaked:
            proc.kill()
            proc.join()
    shutil.rmtree(workdir, ignore_errors=True)
    if workdir.exists():
        problems.append(f"work directory {workdir} not removed")
    return "; ".join(problems) or None


# ------------------------------------------------------------------- set-up
def sample_setup(workload: Workload, seed: int, work_root: Path,
                 host: HostSpeed, batches: int = SETUP_BATCHES) -> dict:
    """``setup_s``: constructing the ``Coordinator`` / ``ChainService``
    until ``start()`` returns, on the default ``RuntimeConfig``."""
    chain = chain_config(workload, seed)
    samples = []
    for _ in range(batches):
        host.sample()
        gc.collect()
        total = 0.0
        for _ in range(SETUP_BATCH):
            workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=work_root))
            t0 = time.monotonic()
            if workload.kind == "service":
                started = _new_service(workload, workdir)
            else:
                started = Coordinator(
                    RuntimeConfig(n_nodes=N_NODES, chain=chain,
                                  strategy=workload.strategy), workdir)
                started.start()
            total += time.monotonic() - t0
            started.shutdown()
            shutil.rmtree(workdir)
        samples.append(total / SETUP_BATCH)
    return summarize(samples, "s")


# ------------------------------------------------------------- one chain run
@dataclass
class Repeat:
    """One Coordinator lifecycle: construct, start, run_chain, shutdown."""

    chain: LocalJobConfig
    #: time.monotonic() around the run_chain() call
    t_call: float = 0.0
    t_return: float = 0.0
    cpu_s: float = 0.0
    #: (time.monotonic(), hook event, info) per hook callback
    marks: list[tuple[float, str, dict]] = field(default_factory=list)
    report: Any = None
    failure: Optional[str] = None
    #: time.monotonic() minus the tracer clock (traced repeats only)
    clock_offset: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.t_return - self.t_call

    def times(self, event: str, **match) -> list[float]:
        return [t for t, ev, info in self.marks if ev == event
                and all(info.get(k) == v for k, v in match.items())]

    def recovery(self) -> Optional[tuple[float, float, float]]:
        """``(detect_s, recovery_s, recovery_job_equiv)`` of a killed
        chain: the final job's first start -> ``death`` -> its second
        start, the latter also in units of this run's own mean initial
        wall of the earlier jobs (a within-run ratio cancels host
        drift)."""
        n_jobs = self.chain.n_jobs
        deaths = self.times("death")
        starts = self.times("job-start", job=n_jobs)
        if not deaths or len(starts) < 2:
            return None
        detect, recovery = deaths[0] - starts[0], starts[1] - deaths[0]
        initial = {}
        for job, kind, wall in self.report.job_times:
            if kind == "run" and job < n_jobs:
                initial.setdefault(job, wall)
        return detect, recovery, recovery / statistics.mean(initial.values())


def _drive(coordinator: Coordinator, repeat: Repeat) -> None:
    repeat.t_call = time.monotonic()
    try:
        repeat.report = coordinator.run_chain()
    except Exception as exc:  # noqa: BLE001 - a failed operation, recorded
        repeat.failure = f"{type(exc).__name__}: {exc}"
    repeat.t_return = time.monotonic()


def run_chain(workload: Workload, chain: LocalJobConfig, work_root: Path,
              tracer=None) -> Repeat:
    """One repeat of a ``chain`` workload on a fresh pool and work
    directory, under the default ``RuntimeConfig``."""
    # the workers are forked from this process and inherit its heap and
    # collector state; collecting first makes every repeat fork from the
    # same state (a leftover reference cluster costs ~20% of chain wall)
    gc.collect()
    workdir = Path(tempfile.mkdtemp(prefix=workload.name + "-",
                                    dir=work_root))
    repeat = Repeat(chain)

    def hooks(event: str, **info) -> None:
        repeat.marks.append((time.monotonic(), event, info))

    config = RuntimeConfig(n_nodes=N_NODES, chain=chain,
                           strategy=workload.strategy)
    faults = FaultModel.parse(workload.faults) if workload.faults else None
    cpu0 = cpu_seconds()
    coordinator = Coordinator(config, workdir, tracer=tracer, hooks=hooks,
                              fault_model=faults)
    try:
        coordinator.start()
        if tracer is not None:
            repeat.clock_offset = time.monotonic() - tracer.now
        thread = threading.Thread(target=_drive, args=(coordinator, repeat),
                                  name="run-chain", daemon=True)
        thread.start()
        thread.join(CHAIN_DEADLINE_S)
        if thread.is_alive():
            repeat.failure = f"deadline of {CHAIN_DEADLINE_S:g}s exceeded"
    except Exception as exc:  # noqa: BLE001 - start() failed
        repeat.failure = f"{type(exc).__name__}: {exc}"
    finally:
        coordinator.shutdown()  # reaps the workers, unblocks a hung chain
    repeat.cpu_s = cpu_seconds() - cpu0
    repeat.failure = repeat.failure or _reap_leaks(workdir)
    if faults and not repeat.failure and repeat.recovery() is None:
        repeat.failure = f"the planned {workload.faults} never fired"
    return repeat


# -------------------------------------------------------- chain end-to-end
def warm_up(workload: Workload, seed: int, work_root: Path) -> None:
    """One smoke-sized chain: imports, the fork path and the work
    directory's file system are warm before anything is timed."""
    warm = smoke(workload)
    warmup = run_chain(warm, chain_config(warm, seed), work_root)
    if warmup.failure:
        raise RuntimeError(f"warm-up chain failed: {warmup.failure}")


def run_chain_repeats(workload: Workload, seed: int, seconds: float,
                      min_repeats: int, work_root: Path,
                      host: HostSpeed) -> list[Repeat]:
    """Repeat the chain until ``seconds`` of measuring have passed, at
    least ``min_repeats`` times, sampling the host's speed around every
    repeat."""
    chain = chain_config(workload, seed)
    repeats: list[Repeat] = []
    t_window = time.monotonic()
    host.sample()
    while (len(repeats) < min_repeats
           or time.monotonic() - t_window < seconds):
        repeats.append(run_chain(workload, chain, work_root))
        host.sample()
    return repeats


def check_repeats(repeats: list[Repeat]) -> list[str]:
    """File a checksum mismatch as that repeat's failure; list the
    failures.  Call after the last timed chain: the reference cluster
    would otherwise sit in the heap every worker is forked from."""
    for repeat in repeats:
        if repeat.failure:
            continue
        reference = reference_checksum(repeat.chain)
        if repeat.report.checksum != reference:
            repeat.failure = (f"checksum {repeat.report.checksum} != "
                              f"reference {reference}")
    return [r.failure for r in repeats if r.failure]


def chain_metrics(workload: Workload, repeats: list[Repeat]) -> dict:
    good = [r for r in repeats if not r.failure]
    if not good:
        raise RuntimeError(
            f"every {workload.name} chain failed: {repeats[0].failure}")
    walls = [r.wall_s for r in good]
    mrec = workload.visits / 1e6
    out = {
        "chain_wall_s": summarize(walls, "s"),
        "chain_wall_p90_s": {"value": percentile(walls, 90), "unit": "s",
                             "n": len(walls)},
        "records_per_s": summarize([workload.visits / w for w in walls],
                                   "1/s", better="higher"),
        "cpu_s_per_mrec": summarize([r.cpu_s / mrec for r in good], "s"),
        "worker_peak_rss_mb": {"value": worker_peak_rss_mb(), "unit": "MB"},
        "failed_fraction": {"value": 1 - len(good) / len(repeats),
                            "unit": "ratio", "n": len(repeats)},
    }
    if workload.faults:
        recoveries = [r.recovery() for r in good]
        out["recovery_s"] = summarize([r[1] for r in recoveries], "s")
        out["recovery_job_equiv"] = summarize([r[2] for r in recoveries],
                                              "job")
    return out


# ------------------------------------------------------------ service window
@dataclass
class ServedChain:
    chain: LocalJobConfig
    wall_s: float                  # submit() call -> wait() return
    job: Any = None                # the service's ChainJob
    failure: Optional[str] = None


@dataclass
class Window:
    """One resident ``ChainService`` driven by closed-loop clients."""

    chains: list[ServedChain]
    wall_s: float                  # first submit -> last completion
    cpu_s: float
    running_peak: int
    #: the chain submitted alone after the window (traced runs only)
    solo: Optional[ServedChain] = None
    leak: Optional[str] = None


def _serve_one(service: ChainService, chain: LocalJobConfig) -> ServedChain:
    t0 = time.monotonic()
    job = failure = None
    try:
        job = service.submit(chain=chain)
        service.wait(job.id, timeout=CHAIN_DEADLINE_S)
        failure = job.error
    except Exception as exc:  # noqa: BLE001 - a failed operation, recorded
        failure = f"{type(exc).__name__}: {exc}"
    return ServedChain(chain, time.monotonic() - t0, job, failure)


def _new_service(workload: Workload, workdir: Path,
                 tracer=None) -> ChainService:
    service = ChainService(RuntimeConfig(n_nodes=N_NODES), workdir,
                           max_concurrent=workload.max_concurrent,
                           tracer=tracer)
    service.start()
    return service


def run_service_window(workload: Workload, seed: int, work_root: Path,
                       host: HostSpeed, seconds: float = 0.0,
                       chains_per_client: Optional[int] = None,
                       tracer=None, solo: bool = False) -> Window:
    """``workload.clients`` threads each submit a chain, wait for it and
    submit the next — until ``seconds`` have passed, or for exactly
    ``chains_per_client`` chains when given.  Every chain has its own
    seed, so no two share input.  The host's speed is sampled before
    and after, never while the clients run: the kernel would share this
    process's interpreter lock with them."""
    for _ in range(3):
        host.sample()
    gc.collect()
    workdir = Path(tempfile.mkdtemp(prefix=workload.name + "-",
                                    dir=work_root))
    cpu0 = cpu_seconds()
    service = _new_service(workload, workdir, tracer)
    served: list[ServedChain] = []
    solo_chain = None
    t_start = time.monotonic()
    t_end = t_start + seconds

    def client(index: int) -> None:
        done = 0
        while (done < chains_per_client if chains_per_client is not None
               else time.monotonic() < t_end):
            chain = chain_config(
                workload, seed * 1_000_003 + index * 500_009 + done)
            served.append(_serve_one(service, chain))
            done += 1

    try:
        clients = [threading.Thread(target=client, args=(i,),
                                    name=f"client{i}", daemon=True)
                   for i in range(workload.clients)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        wall_s = time.monotonic() - t_start
        if solo:
            solo_chain = _serve_one(
                service, chain_config(workload, seed * 1_000_003 - 1))
    finally:
        hung = any(c.failure and c.job is not None and not c.job.done.is_set()
                   for c in served)
        service.shutdown(drain=not hung)
    cpu_s = cpu_seconds() - cpu0
    for _ in range(3):
        host.sample()
    return Window(served, wall_s, cpu_s, service.running_peak,
                  solo=solo_chain, leak=_reap_leaks(workdir))


def check_window(window: Window) -> list[str]:
    """Verify every served chain against its own reference (after the
    window, so the oracle costs the measurement nothing)."""
    chains = window.chains + ([window.solo] if window.solo else [])
    for served in chains:
        if served.failure:
            continue
        if served.job.report is None:
            served.failure = f"chain ended {served.job.state}, no report"
        elif served.job.report.checksum != reference_checksum(served.chain):
            served.failure = "checksum != reference"
    failures = [c.failure for c in chains if c.failure]
    if window.leak:
        failures.append(window.leak)
    return failures


def service_metrics(workload: Workload, window: Window) -> dict:
    good = [c for c in window.chains if not c.failure]
    if not good:
        raise RuntimeError(f"every {workload.name} chain failed: "
                           f"{window.chains[0].failure}")
    walls = [c.wall_s for c in good]
    visits = workload.visits * len(good)
    failed = len(window.chains) - len(good) + bool(window.leak)
    return {
        "chain_wall_s": summarize(walls, "s"),
        "chain_wall_p90_s": {"value": percentile(walls, 90), "unit": "s",
                             "n": len(walls)},
        "records_per_s": {"value": visits / window.wall_s, "unit": "1/s"},
        "chains_per_s": {"value": len(good) / window.wall_s, "unit": "1/s",
                         "n": len(good)},
        "cpu_s_per_mrec": {"value": window.cpu_s / (visits / 1e6),
                           "unit": "s"},
        "worker_peak_rss_mb": {"value": worker_peak_rss_mb(), "unit": "MB"},
        "failed_fraction": {"value": failed / len(window.chains),
                            "unit": "ratio", "n": len(window.chains)},
    }
