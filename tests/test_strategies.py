"""Tests for strategy presets and validation."""

import pytest

from repro.core import strategies
from repro.core.strategies import Strategy, rcmp, repl
from repro.runtime.recovery import effective_split_ratio


def test_presets_match_paper_configuration():
    assert strategies.RCMP.replication == 1
    assert strategies.RCMP.recompute
    assert strategies.RCMP.split_ratio is None  # auto
    assert strategies.RCMP_NOSPLIT.split_ratio == 1
    assert strategies.REPL2.replication == 2
    assert strategies.REPL3.replication == 3
    assert not strategies.REPL2.recompute
    assert strategies.OPTIMISTIC.optimistic
    assert strategies.OPTIMISTIC.replication == 1
    assert strategies.HYBRID.hybrid_interval == 5
    assert strategies.HYBRID.hybrid_replication == 2


def test_recovery_modes():
    assert strategies.RCMP.recovery_mode == "abort"
    assert strategies.OPTIMISTIC.recovery_mode == "abort"
    assert strategies.REPL3.recovery_mode == "hadoop"


def test_effective_split_auto_is_survivors_minus_one():
    # paper: split ratio 59 on 60-node DCO, N-1 in Fig. 11
    def split(strategy, survivors):
        return effective_split_ratio(strategy.split_ratio, survivors)

    assert split(strategies.RCMP, 60) == 59
    assert split(strategies.RCMP, 2) == 1
    assert split(strategies.RCMP_NOSPLIT, 60) == 1
    assert split(rcmp(split_ratio=8), 60) == 8


def test_validation_rules():
    with pytest.raises(ValueError):
        Strategy("bad", replication=0)
    with pytest.raises(ValueError):
        Strategy("bad", split_ratio=0)
    with pytest.raises(ValueError):
        Strategy("bad", optimistic=True, recompute=True)
    with pytest.raises(ValueError):
        Strategy("bad", recompute=False, hybrid_interval=3)
    with pytest.raises(ValueError):
        repl(1)


def test_factory_names():
    assert rcmp(split_ratio=8).name == "RCMP SPLIT-8"
    assert rcmp(split_ratio=1).name == "RCMP NO-SPLIT"
    assert rcmp(hybrid_interval=5).name == "RCMP HYBRID-5"
    assert repl(3).name == "HADOOP REPL-3"


def test_factory_threads_hybrid_replication_and_reclaim():
    """Regression: rcmp() used to silently drop the hybrid knobs, so a
    reclaiming hybrid strategy could only be built via replace()."""
    s = rcmp(hybrid_interval=3, hybrid_replication=3, hybrid_reclaim=True)
    assert s.hybrid_interval == 3
    assert s.hybrid_replication == 3
    assert s.hybrid_reclaim
    assert s.name == "RCMP HYBRID-3 RECLAIM"
    # reclamation needs an anchor to reclaim behind
    with pytest.raises(ValueError, match="hybrid_interval"):
        rcmp(hybrid_reclaim=True)
    with pytest.raises(ValueError, match="hybrid_replication"):
        rcmp(hybrid_interval=3, hybrid_replication=1)
