"""Tests for reducer splitting (paper §IV-B1), as the shared recovery
planner ``repro.runtime.recovery.plan_job_recovery`` applies it."""

import pytest

from repro.core.strategies import Strategy
from repro.runtime.recovery import plan_job_recovery


def _plan(damage, alive, split_ratio):
    return plan_job_recovery(1, damage, all_map_tasks=[],
                             present_map_tasks=[], alive=alive,
                             split_ratio=split_ratio)


def test_no_split_single_task_on_one_node():
    plan = _plan({0: [(0, 1)]}, alive=[7, 5, 6], split_ratio=1)
    assert [(r.partition, r.split_index, r.n_splits, r.node)
            for r in plan.reduces] == [(0, 0, 1, 5)]
    assert plan.split_partitions == ()


def test_split_ratio_capped_by_alive_nodes():
    plan = _plan({0: [(0, 1)]}, alive=[0, 1, 2], split_ratio=10)
    assert len(plan.reduces) == 3
    assert {r.n_splits for r in plan.reduces} == {3}
    assert sorted(r.node for r in plan.reduces) == [0, 1, 2]
    assert plan.split_partitions == (0,)


def test_fractional_piece_not_resplit():
    """A lost split piece is recomputed as one task with its key range."""
    plan = _plan({2: [(1, 4)]}, alive=[0, 1, 2], split_ratio=8)
    assert len(plan.reduces) == 1
    task = plan.reduces[0]
    assert (task.partition, task.split_index, task.n_splits) == (2, 1, 4)
    assert 1 / task.n_splits == pytest.approx(0.25)
    assert plan.split_partitions == ()


def test_validation():
    with pytest.raises(ValueError):
        Strategy("bad", replication=1, recompute=True, split_ratio=0)
    with pytest.raises(ValueError):
        _plan({0: [(0, 1)]}, alive=[], split_ratio=1)
    with pytest.raises(ValueError):
        _plan({0: []}, alive=[0], split_ratio=1)
