"""RCMP in the timing simulator: persisted outputs, lineage, middleware.

Recovery is planned by the shared :mod:`repro.runtime.recovery` (cascade,
reducer splitting, hybrid anchors), the same planner both live executors
use; this package applies its plans to simulated time."""

from repro.core import strategies
from repro.core.middleware import ChainResult, Middleware, run_chain
from repro.core.persistence import LossReport, MapOutputMeta, PersistedStore
from repro.core.strategies import Strategy

__all__ = [
    "ChainResult",
    "LossReport",
    "MapOutputMeta",
    "Middleware",
    "PersistedStore",
    "Strategy",
    "run_chain",
    "strategies",
]
