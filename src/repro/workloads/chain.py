"""The multi-job chain computation of the paper's evaluation (§V-A).

The paper builds a custom 7-job, I/O-intensive chain: each job's output is
the next job's input, with an input:shuffle:output ratio of 1/1/1 (the
sort-like ratio; RCMP's relative advantage grows when the output side is
heavier, e.g. Pig Cogroup's x:y:z with z > x).  Each mapper randomizes record
keys so data is balanced across tasks; the record-level UDFs (MD5 + byte-sum
checks) live in :mod:`repro.localexec` — for the performance simulation only
the byte ratios and CPU costs matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.presets import BLOCK_SIZE, STIC_PER_NODE_INPUT
from repro.cluster.spec import ClusterSpec
from repro.runtime.recovery import JobGraph


@dataclass(frozen=True)
class ChainJobSpec:
    """Per-job configuration within the computation.

    ``map_output_ratio`` is shuffle bytes per input byte and
    ``reduce_output_ratio`` output bytes per shuffle byte, so the paper's
    1/1/1 ratio is (1.0, 1.0).

    ``depends_on`` lists the upstream jobs whose outputs this job reads
    (1-based indexes, all smaller than this job's own index).  ``None``
    means the immediately preceding job — the linear chain of the paper's
    evaluation.  An empty tuple reads the computation's input data, so
    general DAGs (diamonds, joins, trees) are expressible; the paper's
    middleware "uses the dependencies to decide the order of job
    submission" (§IV-A) and RCMP targets any DAG-of-jobs computation (§I).
    """

    map_output_ratio: float = 1.0
    reduce_output_ratio: float = 1.0
    #: reducers per node; None = one per reducer slot (WR = 1, which lets
    #: the shuffle overlap the map phase — the common configuration, §IV-B1)
    reducers_per_node: Optional[float] = None
    depends_on: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.map_output_ratio <= 0 or self.reduce_output_ratio <= 0:
            raise ValueError("ratios must be positive")

    def n_reducers(self, cluster_spec: ClusterSpec) -> int:
        if self.reducers_per_node is None:
            per_node = cluster_spec.node.reducer_slots
        else:
            per_node = self.reducers_per_node
        return max(1, int(round(per_node * cluster_spec.n_nodes)))


@dataclass(frozen=True)
class ChainSpec:
    """A chain of jobs over a fixed per-node input volume."""

    n_jobs: int = 7
    per_node_input: float = STIC_PER_NODE_INPUT
    block_size: float = BLOCK_SIZE
    jobs: tuple[ChainJobSpec, ...] = field(default=())
    input_replication: int = 3   # the paper's triple-replicated input
    #: the dependency DAG the shared recovery planner reads, built (and
    #: validated: malformed edges raise ``ValueError``) at construction
    graph: JobGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.per_node_input <= 0 or self.block_size <= 0:
            raise ValueError("sizes must be positive")
        if self.jobs and len(self.jobs) != self.n_jobs:
            raise ValueError("jobs tuple must match n_jobs")
        object.__setattr__(self, "graph", JobGraph(tuple(
            tuple(self.dependencies(j)) for j in range(1, self.n_jobs + 1))))

    def job(self, job_index: int) -> ChainJobSpec:
        """1-based access to a job's spec (uniform default chain)."""
        if not 1 <= job_index <= self.n_jobs:
            raise IndexError(f"job index {job_index} out of range")
        if self.jobs:
            return self.jobs[job_index - 1]
        return ChainJobSpec()

    def dependencies(self, job_index: int) -> tuple[int, ...]:
        """Upstream jobs of ``job_index``; () means the chain input."""
        spec = self.job(job_index)
        if spec.depends_on is not None:
            return spec.depends_on
        return (job_index - 1,) if job_index > 1 else ()

    def total_input(self, n_nodes: int) -> float:
        return self.per_node_input * n_nodes


def build_chain(n_jobs: int = 7,
                per_node_input: float = STIC_PER_NODE_INPUT,
                block_size: float = BLOCK_SIZE,
                ratios: tuple[float, float] = (1.0, 1.0),
                reducers_per_node: Optional[float] = None,
                input_replication: int = 3) -> ChainSpec:
    """Convenience constructor for a uniform chain.

    ``ratios`` is (map_output_ratio, reduce_output_ratio) — (1, 1) is the
    paper's 1/1/1 input:shuffle:output job.
    """
    job = ChainJobSpec(map_output_ratio=ratios[0],
                       reduce_output_ratio=ratios[1],
                       reducers_per_node=reducers_per_node)
    return ChainSpec(n_jobs=n_jobs, per_node_input=per_node_input,
                     block_size=block_size,
                     jobs=tuple(job for _ in range(n_jobs)),
                     input_replication=input_replication)
