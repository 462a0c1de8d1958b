"""Failure-resilience strategies compared in the paper's evaluation (§V-A).

* **RCMP** — replication factor 1 (one local HDFS replica); recovers by
  recomputation with persisted-output reuse and reducer splitting.
* **RCMP NO-SPLIT** — RCMP without the fine-grained recomputation
  granularity (isolates the benefit of splitting, Figs. 8, 9, 11, 12).
* **REPL-2 / REPL-3** — stock Hadoop with replicated intermediate outputs;
  recovers within a job by task re-execution.
* **OPTIMISTIC** — replication factor 1 and no recomputation support: on any
  data-loss failure the whole multi-job computation restarts from scratch.
* **HYBRID** — RCMP plus replication of every k-th job output, bounding the
  recomputation cascade (§IV-C).
* **RCMP SPREAD** — the §IV-B2 alternative to splitting: recomputed reducers
  write their output spread over all nodes (ablation only).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class Strategy:
    """Configuration of a failure-resilience strategy."""

    name: str
    #: replication factor for intermediate job outputs
    replication: int = 1
    #: recover by recomputation (RCMP) instead of in-job re-execution
    recompute: bool = True
    #: reducer split ratio for recomputation runs; None = auto (survivors-1,
    #: the paper's choice: 8 on STIC, 59 on DCO); 1 disables splitting
    split_ratio: Optional[int] = None
    #: restart the entire chain on data loss (OPTIMISTIC)
    optimistic: bool = False
    #: replicate every k-th job output (0 disables the hybrid mode)
    hybrid_interval: int = 0
    #: replication factor applied at hybrid replication points
    hybrid_replication: int = 2
    #: reclaim persisted outputs behind hybrid replication points
    hybrid_reclaim: bool = False
    #: reuse persisted map outputs during recomputation (disabled only by
    #: the Fig. 13 experiment, which recomputes all mappers)
    reuse_map_outputs: bool = True
    #: recomputed reducers spread their output over all nodes instead of
    #: splitting (the §IV-B2 alternative; ablation only)
    spread_reduce_output: bool = False
    #: restore lost replicas in the background after a failure is detected
    #: (HDFS behaviour; meaningful for the replication baselines)
    re_replicate_after_failure: bool = False
    #: graceful degradation: bound on recomputation runs per recovery
    #: episode — exceeding it abandons the cascade and rolls the chain back
    #: to the last intact anchor (a hybrid replication point, or the chain
    #: input).  0 = unbounded (the paper's behaviour).
    max_cascade_depth: int = 0
    #: bound on chain restarts (OPTIMISTIC resets and degradation
    #: rollbacks) before the run gives up with a clean failure.  0 =
    #: unbounded (the paper's behaviour; stochastic fault arrivals should
    #: set a cap so every run terminates).
    max_restarts: int = 0
    #: base seconds of exponential backoff charged before each restart;
    #: 0 disables backoff
    restart_backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.split_ratio is not None and self.split_ratio < 1:
            raise ValueError("split_ratio must be >= 1 (or None for auto)")
        if self.optimistic and self.recompute:
            raise ValueError("OPTIMISTIC cannot also recompute")
        if self.hybrid_interval < 0:
            raise ValueError("hybrid_interval must be >= 0")
        if self.hybrid_interval and not self.recompute:
            raise ValueError("hybrid mode requires recomputation")
        if self.hybrid_reclaim and self.hybrid_interval <= 0:
            raise ValueError("hybrid_reclaim requires hybrid_interval > 0 "
                             "(there is no anchor to reclaim behind)")
        if self.hybrid_interval and self.hybrid_replication < 2:
            raise ValueError("hybrid_replication must be >= 2")
        if self.max_cascade_depth < 0 or self.max_restarts < 0:
            raise ValueError("degradation bounds must be >= 0")
        if self.restart_backoff < 0:
            raise ValueError("restart_backoff must be >= 0")
        if self.max_cascade_depth and not self.recompute:
            raise ValueError("max_cascade_depth only applies to "
                             "recomputation strategies")

    # -- helpers ----------------------------------------------------------
    @property
    def recovery_mode(self) -> str:
        """JobTracker recovery mode for this strategy's runs."""
        return "hadoop" if (not self.recompute and not self.optimistic) \
            else "abort"

    def with_split(self, ratio: Optional[int]) -> "Strategy":
        suffix = "SPLIT-auto" if ratio is None else f"SPLIT-{ratio}"
        return replace(self, split_ratio=ratio,
                       name=f"{self.name.split()[0]} {suffix}")

    def with_degradation(self, max_cascade_depth: int = 0,
                         max_restarts: int = 0,
                         restart_backoff: float = 0.0) -> "Strategy":
        """Copy with graceful-degradation bounds (name unchanged — the
        bounds alter behaviour only when they trip)."""
        return replace(self, max_cascade_depth=max_cascade_depth,
                       max_restarts=max_restarts,
                       restart_backoff=restart_backoff)


# -- presets matching the paper -------------------------------------------
RCMP = Strategy("RCMP", replication=1, recompute=True, split_ratio=None)
RCMP_NOSPLIT = Strategy("RCMP NO-SPLIT", replication=1, recompute=True,
                        split_ratio=1)
RCMP_SPREAD = Strategy("RCMP SPREAD", replication=1, recompute=True,
                       split_ratio=1, spread_reduce_output=True)
REPL2 = Strategy("HADOOP REPL-2", replication=2, recompute=False,
                 re_replicate_after_failure=True)
REPL3 = Strategy("HADOOP REPL-3", replication=3, recompute=False,
                 re_replicate_after_failure=True)
OPTIMISTIC = Strategy("OPTIMISTIC", replication=1, recompute=False,
                      optimistic=True)
HYBRID = Strategy("RCMP HYBRID", replication=1, recompute=True,
                  split_ratio=None, hybrid_interval=5, hybrid_replication=2)


def repl(factor: int) -> Strategy:
    """Hadoop with the given intermediate-output replication factor."""
    if factor < 2:
        raise ValueError("Hadoop needs replication >= 2 to survive failures")
    return Strategy(f"HADOOP REPL-{factor}", replication=factor,
                    recompute=False, re_replicate_after_failure=True)


def rcmp(split_ratio: Optional[int] = None,
         hybrid_interval: int = 0,
         hybrid_replication: int = 2,
         hybrid_reclaim: bool = False) -> Strategy:
    """RCMP with an explicit split ratio and optional hybrid replication.

    ``hybrid_replication`` and ``hybrid_reclaim`` configure the §IV-C
    anchors exactly as on :class:`Strategy`; they only take effect with
    ``hybrid_interval > 0`` (``hybrid_reclaim`` without an interval is
    rejected — there is no anchor to reclaim behind)."""
    name = "RCMP"
    if split_ratio == 1:
        name = "RCMP NO-SPLIT"
    elif split_ratio is not None:
        name = f"RCMP SPLIT-{split_ratio}"
    if hybrid_interval:
        name += f" HYBRID-{hybrid_interval}"
        if hybrid_reclaim:
            name += " RECLAIM"
    return Strategy(name, replication=1, recompute=True,
                    split_ratio=split_ratio, hybrid_interval=hybrid_interval,
                    hybrid_replication=hybrid_replication,
                    hybrid_reclaim=hybrid_reclaim)
