"""repro — a reproduction of RCMP (Dinu & Ng, IPDPS 2014).

RCMP makes *job recomputation* a first-order failure resilience strategy for
multi-job MapReduce computations, replacing most uses of data replication for
intermediate job outputs.  This package contains:

``repro.simcore``
    A discrete-event simulation engine with fluid (bandwidth-shared)
    resources, used to model disks, NICs and oversubscribed core links.
``repro.cluster``
    Cluster topology, node/disk/network models, failure injection and
    availability-trace generation (paper Fig. 2).
``repro.dfs``
    An HDFS-like block-replicated distributed file system.
``repro.mapreduce``
    A slot/wave-based MapReduce engine (mappers, all-to-all shuffle,
    reducers, a JobTracker with Hadoop-style within-job recovery).
``repro.core``
    RCMP itself in the simulator: persisted-output store, lineage,
    multi-job middleware and failure-resilience strategies.  Recovery is
    planned by the shared ``repro.runtime.recovery`` (cascade, reducer
    splitting, hybrid anchors) that every executor uses.
``repro.localexec``
    A record-level in-process MapReduce running the paper's actual UDFs;
    used to validate the *semantic correctness* of recomputation.
``repro.workloads``
    The paper's 7-job I/O-intensive chain and the failure scenarios of
    Fig. 7 / Fig. 9.
``repro.analysis``
    Closed-form models (paper §IV), the OPTIMISTIC numerical analysis and
    the Fig. 10 chain-length extrapolation.
``repro.experiments``
    One module per evaluation figure (Figs. 2, 8-14).

Quickstart::

    from repro import presets, run_chain, strategies
    cluster_spec = presets.stic(slots=(1, 1))
    result = run_chain(cluster_spec, n_jobs=7, strategy=strategies.RCMP,
                       failures=[(2, 15.0)])
    print(result.total_runtime)
"""

__version__ = "1.0.0"

__all__ = [
    "ChainResult",
    "ChainSpec",
    "build_chain",
    "presets",
    "run_chain",
    "strategies",
    "__version__",
]

_LAZY = {
    "presets": ("repro.cluster", "presets"),
    "strategies": ("repro.core", "strategies"),
    "ChainResult": ("repro.core.middleware", "ChainResult"),
    "run_chain": ("repro.core.middleware", "run_chain"),
    "ChainSpec": ("repro.workloads.chain", "ChainSpec"),
    "build_chain": ("repro.workloads.chain", "build_chain"),
}


def __getattr__(name):  # PEP 562 lazy top-level API
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") \
            from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
