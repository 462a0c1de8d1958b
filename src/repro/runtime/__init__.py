"""Multi-process execution runtime: RCMP recovery on real worker processes.

The packages :mod:`repro.mapreduce`/:mod:`repro.core` *model* the paper's
timing; :mod:`repro.localexec` checks its *semantics* in one process; this
package runs both for real — every simulated node is an OS **process**,
persistence is real single-replica files, the shuffle moves bytes between
processes, failures are real ``SIGKILL``s detected over a heartbeat
channel, and the coordinator runs the RCMP protocol (cancel the in-flight
job, recompute the cascade from surviving on-disk outputs, re-execute only
lost work, split lost partitions ``k`` ways with the Fig. 5 guard).

Modules:

* :mod:`repro.runtime.recovery` — the shared pure planner (also used by
  ``localexec``); importing it pulls no process machinery.
* :mod:`repro.runtime.storage` — on-disk node layout, the in-memory
  hot tier (:class:`MemoryTier`), record codec, coordinator-side
  registry with the damage inventory.
* :mod:`repro.runtime.protocol` — the control-plane wire shape: dict
  commands stamped with ``key``/``epoch``/``chain``, one typed
  :class:`Event` echoing them back.
* :mod:`repro.runtime.transport` — pipe framing, heartbeats, and the
  pipelined TCP shuffle (persistent per-peer connections, server-side
  split filtering).
* :mod:`repro.runtime.worker` — the worker process main loop.
* :mod:`repro.runtime.coordinator` — job DAG, dispatch, failure handling:
  the shared :class:`WorkerPool`, the per-chain :class:`ChainRun`, and
  :class:`Coordinator` composing one of each for a single chain.
* :mod:`repro.runtime.service` — the multi-tenant :class:`ChainService`:
  many chains queued over one shared worker pool.
* :mod:`repro.runtime.cache` — the cross-run result cache: lineage
  fingerprints, the persistent :class:`CacheRegistry`, prefix adoption.
* :mod:`repro.runtime.faults` — fault plan -> live ``SIGKILL`` injection.

The heavier modules are re-exported lazily so that importing
``repro.runtime`` (e.g. from ``localexec``'s planner dependency) stays
cheap and cycle-free.
"""

from repro.runtime.recovery import (
    JobGraph,
    JobRecoveryPlan,
    ReduceSpec,
    adoptable_closure,
    cascade_jobs,
    consumer_invalidations,
    effective_split_ratio,
    hybrid_reclaimable,
    plan_job_recovery,
)

__all__ = [
    "CacheRegistry",
    "ChainRun",
    "ChainService",
    "Coordinator",
    "JobGraph",
    "JobRecoveryPlan",
    "MTBFKills",
    "MemoryTier",
    "PeerPool",
    "ReduceSpec",
    "RunReport",
    "RuntimeConfig",
    "ShuffleServer",
    "WorkerPool",
    "adoptable_closure",
    "cascade_jobs",
    "chain_checksum",
    "chain_fingerprints",
    "consumer_invalidations",
    "effective_split_ratio",
    "hybrid_reclaimable",
    "plan_job_recovery",
]

_LAZY = {
    "Coordinator": ("repro.runtime.coordinator", "Coordinator"),
    "WorkerPool": ("repro.runtime.coordinator", "WorkerPool"),
    "ChainRun": ("repro.runtime.coordinator", "ChainRun"),
    "RuntimeConfig": ("repro.runtime.coordinator", "RuntimeConfig"),
    "RunReport": ("repro.runtime.coordinator", "RunReport"),
    "ChainService": ("repro.runtime.service", "ChainService"),
    "MTBFKills": ("repro.runtime.service", "MTBFKills"),
    "CacheRegistry": ("repro.runtime.cache", "CacheRegistry"),
    "chain_fingerprints": ("repro.runtime.cache", "chain_fingerprints"),
    "chain_checksum": ("repro.runtime.storage", "chain_checksum"),
    "MemoryTier": ("repro.runtime.storage", "MemoryTier"),
    "PeerPool": ("repro.runtime.transport", "PeerPool"),
    "ShuffleServer": ("repro.runtime.transport", "ShuffleServer"),
}


def __getattr__(name: str):
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib

    return getattr(importlib.import_module(module), attr)
