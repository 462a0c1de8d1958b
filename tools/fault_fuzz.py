"""Seeded fault-model fuzzing: randomized fault configurations, fixed seeds.

Used by the CI smoke job.  Each iteration draws a random (but seeded, hence
reproducible) combination of cluster size, chain length, strategy, heartbeat
configuration and fault input — legacy ``FAIL`` plans, explicit event specs,
or stochastic MTBF arrivals — executes the chain **twice**, and asserts:

* no crash: the run returns a ``ChainResult`` (exceptions abort the fuzz);
* termination: the result is ``completed`` or carries a ``failure_reason``;
* determinism: both executions produce byte-identical summaries;
* no lost result: a completed run leaves no damaged sink behind.

After the ``--runs`` linear chains come ``--runs // 3`` DAG runs (diamond,
fan-out, fan-in, reduction tree) drawn from their own generator, so adding
them left every linear draw unchanged.

Usage::

    PYTHONPATH=src python tools/fault_fuzz.py [--runs N] [--seed S] \
        [--dump FILE]

``--dump`` writes one ``i<TAB>summary`` line per run (DAG runs as
``dagI``), so two builds compare with ``cmp``.  ``FAULT_FUZZ_RUNS`` /
``FAULT_FUZZ_SEED`` env vars override the defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys

from repro.cluster import presets
from repro.cluster.spec import MB
from repro.cluster.topology import Cluster
from repro.core import strategies
from repro.core.middleware import Middleware
from repro.dfs import DistributedFileSystem
from repro.faults import FaultModel
from repro.simcore import SeedSequenceRegistry, Simulator
from repro.workloads import dag
from repro.workloads.chain import build_chain

DEGRADE = dict(max_cascade_depth=6, max_restarts=4, restart_backoff=1.0)

STRATEGIES = {
    "rcmp": lambda: strategies.RCMP.with_degradation(**DEGRADE),
    "hybrid": lambda: strategies.HYBRID.with_degradation(**DEGRADE),
    "repl2": lambda: strategies.REPL2,
    "optimistic": lambda: strategies.OPTIMISTIC.with_degradation(
        max_restarts=4, restart_backoff=1.0),
}

SMALL = dict(per_node_input=256 * MB, block_size=64 * MB)

DAG_SHAPES = [
    lambda rng: dag.diamond(**SMALL),
    lambda rng: dag.fan_out(rng.randint(2, 3), **SMALL),
    lambda rng: dag.fan_in(rng.randint(2, 3), **SMALL),
    lambda rng: dag.binary_tree(rng.randint(1, 2), **SMALL),
]


def _draw_faults(rng: random.Random, n_jobs: int, n_nodes: int):
    """One of: legacy plan string, explicit event spec, straggler mix,
    MTBF model."""
    roll = rng.random()
    if roll < 0.2:  # legacy FAIL notation
        first = rng.randint(1, n_jobs)
        if rng.random() < 0.5:
            return str(first)
        return f"{first},{rng.randint(first, 2 * n_jobs)}"
    if roll < 0.35:  # straggler clauses, alone or interleaved with kills
        # pinned slow victims must be distinct: two slow clauses naming
        # one node with different factors are a (tested) parse error
        victims = rng.sample(range(n_nodes), 2)
        factor = rng.choice([2, 3, 5, 10])
        clauses = [f"slow@{victims[0]}:{factor}"
                   if rng.random() < 0.5 else
                   f"slow@job{rng.randint(1, n_jobs)}"
                   f"+{rng.randint(0, 20)}:"
                   f"node={victims[0]},factor={factor}"]
        if rng.random() < 0.4:  # second straggler, distinct node
            clauses.append(f"slow@{victims[1]}:{rng.choice([2, 4])}")
        if rng.random() < 0.6:  # slow + kill interleaving
            clauses.append(f"kill@job{rng.randint(1, n_jobs)}"
                           f"+{rng.randint(0, 30)}")
        return FaultModel.parse(";".join(clauses))
    if roll < 0.65:  # explicit event clauses
        clauses = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(["kill", "transient", "disk", "rack"])
            anchor = (f"job{rng.randint(1, n_jobs)}+{rng.randint(0, 30)}"
                      if rng.random() < 0.7 else f"t{rng.randint(10, 400)}")
            opts = []
            if kind in ("transient", "rack"):
                opts.append(f"down={rng.randint(10, 90)}")
                if kind == "transient" and rng.random() < 0.3:
                    opts.append("wipe")
            if kind == "rack":
                opts.append(f"rack={rng.randint(0, 1)}")
            clauses.append(f"{kind}@{anchor}" + (":" + ",".join(opts)
                                                 if opts else ""))
        return FaultModel.parse(";".join(clauses))
    # stochastic arrivals
    mtbf = rng.choice([60, 120, 300, 600])
    mix = rng.choice(["kill", "transient,down=40", "transient,kill,down=45"])
    return FaultModel.parse(f"mtbf={mtbf}:{mix},max=16")


def _summary(result) -> str:
    return repr((result.completed, result.failure_reason,
                 round(result.total_runtime, 9), result.jobs_started,
                 result.restarts, tuple(result.killed_nodes),
                 tuple(result.fault_log), result.metrics.summary()))


def _run(cluster_spec, strategy, chain, faults, seed):
    """``run_chain``, also returning the jobs damaged when the chain ends
    (a fault drawn past the end still lands in the drained simulation)."""
    sim = Simulator()
    cluster = Cluster(sim, cluster_spec, SeedSequenceRegistry(seed))
    middleware = Middleware(cluster,
                            DistributedFileSystem(cluster, chain.block_size),
                            chain, strategy, faults)

    def body():
        result = yield from middleware.run()
        return result, set(middleware.state.damaged_jobs())

    proc = sim.process(body(), name="middleware")
    sim.run()
    assert proc.triggered and proc.ok, "chain did not finish cleanly"
    return proc.value


def _draw_cluster(rng: random.Random):
    n_nodes = rng.randint(4, 6)
    cluster = presets.tiny(n_nodes)
    if rng.random() < 0.3:
        cluster = dataclasses.replace(cluster, n_racks=2)
    if rng.random() < 0.3:  # heartbeat detector instead of the paper's oracle
        cluster = dataclasses.replace(
            cluster, heartbeat_interval=float(rng.randint(1, 5)),
            heartbeat_expiry=float(rng.randint(6, 15)))
    return cluster


def _fuzz(label: str, rng: random.Random, cluster, chain) -> str:
    """Draw a strategy and faults, run ``chain`` twice, check the
    contract; returns the run's summary."""
    name = rng.choice(sorted(STRATEGIES))
    strategy = STRATEGIES[name]()
    faults = _draw_faults(rng, chain.n_jobs, cluster.n_nodes)
    seed = rng.randint(0, 2**31 - 1)
    context = f"strategy={name}, faults={faults!r}, seed={seed}"
    # sinks: the jobs no other job reads — the computation's results
    # (from ``dependencies`` alone, so a ``--dump`` of older sources runs)
    sinks = set(range(1, chain.n_jobs + 1)) - {
        d for j in range(1, chain.n_jobs + 1)
        for d in chain.dependencies(j)}

    summaries = []
    for _ in range(2):
        result, damaged = _run(cluster, strategy, chain, faults, seed)
        assert result.completed or result.failure_reason, (
            f"{label}: neither completed nor failed cleanly ({context})")
        assert not (result.completed and damaged & sinks), (
            f"{label}: completed with damaged sinks "
            f"{sorted(damaged & sinks)} ({context})")
        summaries.append(_summary(result))
    assert summaries[0] == summaries[1], (
        f"{label}: non-deterministic summary ({context})\n"
        f"  first:  {summaries[0]}\n  second: {summaries[1]}")
    return summaries[0]


def fuzz_one(i: int, master_seed: int) -> str:
    rng = random.Random(master_seed * 100_000 + i)
    cluster = _draw_cluster(rng)
    chain = build_chain(n_jobs=rng.randint(2, 4), **SMALL)
    return _fuzz(f"run {i}", rng, cluster, chain)


def fuzz_dag(i: int, master_seed: int) -> str:
    rng = random.Random(f"dag-{master_seed}-{i}")
    cluster = _draw_cluster(rng)
    chain = rng.choice(DAG_SHAPES)(rng)
    return _fuzz(f"dag run {i}", rng, cluster, chain)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int,
                        default=int(os.environ.get("FAULT_FUZZ_RUNS", 300)))
    parser.add_argument("--seed", type=int,
                        default=int(os.environ.get("FAULT_FUZZ_SEED", 1)))
    parser.add_argument("--dump", metavar="FILE",
                        help="write one 'i<TAB>summary' line per run")
    args = parser.parse_args(argv)
    runs = [(str(i), fuzz_one, i) for i in range(args.runs)] + \
        [(f"dag{i}", fuzz_dag, i) for i in range(args.runs // 3)]
    dump = open(args.dump, "w") if args.dump else None
    try:
        for n, (label, fuzz, i) in enumerate(runs, start=1):
            summary = fuzz(i, args.seed)
            if dump:
                dump.write(f"{label}\t{summary}\n")
                dump.flush()
            if n % 50 == 0:
                print(f"fault-fuzz: {n}/{len(runs)} ok", flush=True)
    finally:
        if dump:
            dump.close()
    print(f"fault-fuzz: {args.runs} linear + {args.runs // 3} DAG "
          f"randomized runs, all terminated deterministically "
          f"(seed={args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
