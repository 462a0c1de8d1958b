"""Tests for the persisted map-output store."""

import pytest

from repro.core.persistence import MapOutputMeta, PersistedStore
from repro.mapreduce.types import PartitionRef


def meta(job=1, tid=0, node=0, size=100.0, origin=None):
    return MapOutputMeta(job, tid, node, size, origin)


def test_register_and_get():
    store = PersistedStore()
    store.register(meta(1, 0, node=2))
    assert store.get(1, 0).node == 2
    assert store.get(1, 1) is None
    assert len(store) == 1


def test_register_replaces_and_reaccounts():
    store = PersistedStore()
    store.register(meta(1, 0, node=2, size=100.0))
    store.register(meta(1, 0, node=3, size=50.0))
    assert store.get(1, 0).node == 3
    assert store.bytes_on_node[2] == pytest.approx(0.0)
    assert store.bytes_on_node[3] == pytest.approx(50.0)
    assert store.total_bytes == pytest.approx(50.0)


def test_drop_node_loses_only_that_node():
    store = PersistedStore()
    store.register(meta(1, 0, node=0))
    store.register(meta(1, 1, node=1))
    store.register(meta(2, 0, node=1))
    report = store.drop_node(1)
    assert {m.key for m in report.lost_map_outputs} == {(1, 1), (2, 0)}
    assert report.jobs_touched == {1, 2}
    assert store.get(1, 0) is not None
    assert store.get(1, 1) is None
    assert store.bytes_on_node[1] == 0.0


def test_invalidate_by_origin_is_the_fig5_rule():
    store = PersistedStore()
    p = PartitionRef(1, 3)
    other = PartitionRef(1, 4)
    store.register(meta(2, 0, node=0, origin=p))
    store.register(meta(2, 1, node=1, origin=p))
    store.register(meta(2, 2, node=2, origin=other))
    victims = store.invalidate_by_origin(p)
    assert {v.key for v in victims} == {(2, 0), (2, 1)}
    assert store.get(2, 2) is not None
    assert len(store) == 1


def test_reclaim_jobs_frees_old_entries():
    store = PersistedStore()
    for j in (1, 2, 3):
        store.register(meta(j, 0, node=j, size=10.0))
    freed = store.reclaim_jobs({1, 2})
    assert freed == pytest.approx(20.0)
    assert store.get(1, 0) is None
    assert store.get(2, 0) is None
    assert store.get(3, 0) is not None


def test_entries_for_job():
    store = PersistedStore()
    store.register(meta(1, 0))
    store.register(meta(1, 5))
    store.register(meta(2, 0))
    assert sorted(store.entries_for_job(1)) == [0, 5]


def test_clear_resets_everything():
    store = PersistedStore()
    store.register(meta(1, 0, size=42.0))
    store.clear()
    assert len(store) == 0
    assert store.total_bytes == 0.0
