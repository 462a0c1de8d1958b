"""The generalized fault model.

The paper's protocol (§V-A) only knows planned fail-stop kills at job
ordinals ("FAIL 7,14").  :class:`FaultModel` generalizes it to a set of
planned :class:`FaultEvent` plus an optional seeded Poisson (MTBF-driven)
arrival process, covering the failure classes studied by the resilience
literature the reproduction draws on:

``fail-stop``
    The paper's event: the node dies and never returns.
``transient``
    Crash-recover: the node dies and rejoins ``downtime`` seconds later.
    Its local data (DFS replicas, persisted map outputs) survives the
    outage unless ``wipe`` is set (disk replaced during the repair).
``disk-loss``
    The data disk fails and is replaced empty; the node keeps computing.
``rack``
    Correlated failure of every alive node in one rack (a rack switch or
    PDU event); with a ``downtime`` it is a transient rack outage whose
    nodes rejoin with their data intact.
``slow``
    A straggler, not a failure: the node stays alive and keeps
    heartbeating but its task loop and shuffle serving run at
    ``1/factor`` speed.  A slow node must never be declared lost — the
    runtimes handle it with suspicion + speculation instead of recovery.

Spec grammar (the CLI's ``--faults``), clauses separated by ``;``::

    kill@job2                 fail-stop 15 s into started-job 2 (paper)
    kill@job2+5:node=3        explicit offset and victim
    transient@job2:down=45    crash-recover, rejoins 45 s later, data intact
    transient@t120:down=60,wipe    at absolute time, disk wiped on return
    disk@job3+10              disk-loss during job 3
    rack@t300:rack=1,down=30  rack 1 power-cycles for 30 s
    slow@2:10                 node 2 computes 10x slow from chain start
    slow@job3+5:node=1,factor=4    straggler onset mid-chain
    slow@t30:factor=2         unpinned victim drawn by the seeded RNG
    mtbf=600                  Poisson fail-stop arrivals, mean 600 s
    mtbf=600:transient,kill,down=60,max=40    mixed stochastic kinds

The legacy "FAIL 7,14" notation is still accepted and maps to the paper's
exact protocol (second kill 15 s after the first when X == Y).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional

KINDS = ("fail-stop", "transient", "disk-loss", "rack", "slow")

_KIND_ALIASES = {
    "kill": "fail-stop", "fail-stop": "fail-stop", "failstop": "fail-stop",
    "transient": "transient", "crash-recover": "transient",
    "disk": "disk-loss", "disk-loss": "disk-loss",
    "rack": "rack",
    "slow": "slow", "straggler": "slow",
}

#: the paper's FAIL notation: an optional FAIL prefix, then ordinals
_LEGACY_RE = re.compile(r"(?i:fail)?[\s\d,]+")

#: default downtime for transient events that do not specify one
DEFAULT_DOWNTIME = 60.0


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault.

    Triggered either ``offset`` seconds after started-job ``at_job``
    begins (the paper's job-ordinal trigger) or at absolute simulation
    time ``at_time``.  ``node_id`` / ``rack`` pin the victim; when absent
    the injector draws a random alive victim.
    """

    kind: str = "fail-stop"
    at_job: Optional[int] = None
    at_time: Optional[float] = None
    offset: float = 15.0
    node_id: Optional[int] = None
    rack: Optional[int] = None
    downtime: float = 0.0
    wipe: bool = False
    #: slowdown multiplier for ``slow`` events (the node runs at 1/factor)
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if (self.at_job is None) == (self.at_time is None):
            raise ValueError("exactly one of at_job/at_time must be set")
        if self.at_job is not None and self.at_job < 1:
            raise ValueError("job ordinals are 1-based")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError("at_time must be >= 0")
        if self.offset < 0:
            raise ValueError("offset must be >= 0")
        if self.downtime < 0:
            raise ValueError("downtime must be >= 0")
        if self.kind == "transient" and self.downtime <= 0:
            raise ValueError("transient faults need a positive downtime")
        if self.kind == "disk-loss" and self.downtime:
            raise ValueError("disk-loss keeps the node up; downtime does "
                             "not apply")
        if self.kind == "slow":
            if self.factor <= 1.0:
                raise ValueError("slow faults need factor > 1 (a 1x-slow "
                                 "node is healthy)")
            if self.downtime or self.wipe:
                raise ValueError("slow keeps the node up with its data; "
                                 "downtime/wipe do not apply")
            if self.rack is not None:
                raise ValueError("slow events pin a node, not a rack")
        elif self.factor != 1.0:
            raise ValueError("factor applies to slow faults only")

    @property
    def transient(self) -> bool:
        """Whether the killed node(s) rejoin after ``downtime``."""
        return self.downtime > 0

    @property
    def data_survives(self) -> bool:
        """Whether local data is intact when the node rejoins."""
        return self.transient and not self.wipe


@dataclass
class FaultModel:
    """Planned fault events plus an optional stochastic arrival process."""

    events: list[FaultEvent] = field(default_factory=list)
    #: mean time between stochastic failures (None disables arrivals)
    mtbf: Optional[float] = None
    #: kinds the arrival process draws from, uniformly
    mtbf_kinds: tuple[str, ...] = ("fail-stop",)
    #: downtime applied to stochastic transient events
    mtbf_downtime: float = DEFAULT_DOWNTIME
    #: whether stochastic transient events wipe the rejoining disk
    mtbf_wipe: bool = False
    #: hard cap on stochastic arrivals — bounds the event count so every
    #: stochastic run terminates
    max_stochastic: int = 64
    #: dedicated seed for the arrival process; None derives it from the
    #: run's root seed (the "fault-arrivals" stream)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mtbf is not None and self.mtbf <= 0:
            raise ValueError("mtbf must be positive")
        for kind in self.mtbf_kinds:
            if kind not in ("fail-stop", "transient", "disk-loss"):
                raise ValueError(f"stochastic kind {kind!r} not supported "
                                 "(rack and slow events must be planned)")
        if self.mtbf_downtime <= 0:
            raise ValueError("mtbf_downtime must be positive")
        if self.max_stochastic < 1:
            raise ValueError("max_stochastic must be >= 1")
        self.events = self._merge_slow(self.events)

    @staticmethod
    def _merge_slow(events: list[FaultEvent]) -> list[FaultEvent]:
        """Collapse duplicate pinned slow events per node: identical
        factors merge (keep the first), conflicting factors are a plan
        authoring error — one throttle per node."""
        merged: list[FaultEvent] = []
        factor_for: dict[int, float] = {}
        for ev in events:
            if ev.kind == "slow" and ev.node_id is not None:
                seen = factor_for.get(ev.node_id)
                if seen is not None:
                    if seen != ev.factor:
                        raise ValueError(
                            f"conflicting slow factors for node "
                            f"{ev.node_id}: {seen:g}x vs {ev.factor:g}x "
                            "— give each node at most one slow event")
                    continue
                factor_for[ev.node_id] = ev.factor
            merged.append(ev)
        return merged

    # -- views -----------------------------------------------------------
    @property
    def stochastic(self) -> bool:
        return self.mtbf is not None

    @property
    def has_transient(self) -> bool:
        """Whether any event may bring a killed node back (the lineage
        layer then keeps lost-file metadata for rejoin revalidation)."""
        if any(ev.transient for ev in self.events):
            return True
        return self.stochastic and "transient" in self.mtbf_kinds

    @property
    def n_planned(self) -> int:
        return len(self.events)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_plan(cls, plan) -> "FaultModel":
        """Convert a legacy :class:`repro.cluster.failures.FailurePlan`."""
        return cls([FaultEvent(kind="fail-stop", at_job=ev.at_job,
                               offset=ev.offset, node_id=ev.node_id)
                    for ev in plan.events])

    @classmethod
    def parse(cls, spec: str) -> "FaultModel":
        """Parse a ``--faults`` spec (grammar in the module docstring)."""
        text = spec.strip()
        if not text:
            raise ValueError("empty fault spec")
        if _LEGACY_RE.fullmatch(text):
            from repro.cluster.failures import FailurePlan
            return cls.from_plan(FailurePlan.parse(text))
        events: list[FaultEvent] = []
        mtbf_kw: Optional[dict] = None
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.lower().startswith("mtbf"):
                if mtbf_kw is not None:
                    raise ValueError("at most one mtbf clause allowed")
                mtbf_kw = cls._parse_mtbf(clause)
            else:
                events.append(cls._parse_event(clause))
        return cls(events, **(mtbf_kw or {}))

    @staticmethod
    def _parse_event(clause: str) -> FaultEvent:
        head, _, opts = clause.partition(":")
        kind_s, sep, trig = head.partition("@")
        if not sep:
            raise ValueError(
                f"fault clause {clause!r} needs a trigger: "
                f"kind@job<N>[+<OFFSET>] or kind@t<SECONDS>")
        kind = _KIND_ALIASES.get(kind_s.strip().lower())
        if kind is None:
            raise ValueError(f"unknown fault kind {kind_s.strip()!r} in "
                             f"{clause!r}; known: {sorted(_KIND_ALIASES)}")
        trig = trig.strip().lower()
        at_job = at_time = None
        offset = 15.0
        kwargs: dict = {"node_id": None, "rack": None,
                        "downtime": 0.0, "wipe": False, "factor": None}
        try:
            if trig.startswith("job"):
                body = trig[3:]
                if "+" in body:
                    ordinal, _, off = body.partition("+")
                    offset = float(off)
                else:
                    ordinal = body
                at_job = int(ordinal)
            elif trig.startswith("t"):
                at_time = float(trig[1:])
            elif kind == "slow" and trig.isdigit():
                # shorthand: slow@<node>:<factor> throttles from chain start
                kwargs["node_id"] = int(trig)
                at_time = 0.0
            else:
                raise ValueError
        except ValueError:
            expected = "job<N>[+<OFFSET>] or t<SECONDS>"
            if kind == "slow":
                expected += " or the slow@<NODE>:<FACTOR> shorthand"
            raise ValueError(f"cannot parse trigger {trig!r} in {clause!r}; "
                             f"expected {expected}") from None
        for opt in opts.split(","):
            opt = opt.strip()
            if not opt:
                continue
            key, _, val = opt.partition("=")
            key, val = key.strip().lower(), val.strip()
            if key == "node":
                kwargs["node_id"] = int(val)
            elif key == "rack":
                kwargs["rack"] = int(val)
            elif key in ("down", "downtime"):
                kwargs["downtime"] = float(val)
            elif key == "wipe":
                kwargs["wipe"] = val.lower() in ("", "1", "true", "yes")
            elif key == "factor" or key == "x":
                kwargs["factor"] = float(val)
            elif kind == "slow" and not val and _is_number(key):
                # bare factor in the slow@<node>:<factor> shorthand
                kwargs["factor"] = float(key)
            else:
                raise ValueError(f"unknown fault option {key!r} in "
                                 f"{clause!r}")
        if kind == "transient" and kwargs["downtime"] <= 0:
            kwargs["downtime"] = DEFAULT_DOWNTIME
        if kind == "slow" and kwargs["factor"] is None:
            raise ValueError(f"slow clause {clause!r} needs a factor: "
                             "slow@<NODE>:<FACTOR> or factor=<F>")
        if kwargs["factor"] is None:
            kwargs["factor"] = 1.0
        return FaultEvent(kind=kind, at_job=at_job, at_time=at_time,
                          offset=offset, **kwargs)

    @staticmethod
    def _parse_mtbf(clause: str) -> dict:
        head, _, opts = clause.partition(":")
        _, sep, val = head.partition("=")
        if not sep:
            raise ValueError(f"mtbf clause {clause!r} needs a value: "
                             f"mtbf=<SECONDS>")
        kw: dict = {"mtbf": float(val)}
        kinds: list[str] = []
        for opt in opts.split(","):
            opt = opt.strip()
            if not opt:
                continue
            key, _, oval = opt.partition("=")
            key, oval = key.strip().lower(), oval.strip()
            if key in _KIND_ALIASES and _KIND_ALIASES[key] != "rack":
                kinds.append(_KIND_ALIASES[key])
            elif key in ("down", "downtime"):
                kw["mtbf_downtime"] = float(oval)
            elif key == "wipe":
                kw["mtbf_wipe"] = oval.lower() in ("", "1", "true", "yes")
            elif key == "max":
                kw["max_stochastic"] = int(oval)
            else:
                raise ValueError(f"unknown mtbf option {key!r} in "
                                 f"{clause!r}")
        if kinds:
            kw["mtbf_kinds"] = tuple(kinds)
        return kw

    # -- transforms ------------------------------------------------------
    def clamp_to(self, max_job: int) -> "FaultModel":
        """Clamp job-triggered events for strategies that never exceed
        ``max_job`` started jobs (Hadoop runs exactly the chain length).
        Events collapsing onto one job keep their order by pushing the
        later offset 15 s past the earlier one, like the paper's
        back-to-back double kills."""
        clamped: list[FaultEvent] = []
        prev: Optional[FaultEvent] = None
        for ev in self.events:
            if ev.at_job is None:
                clamped.append(ev)
                continue
            at = min(ev.at_job, max_job)
            off = ev.offset
            if prev is not None and prev.at_job == at and off <= prev.offset:
                off = prev.offset + 15.0
            ev = replace(ev, at_job=at, offset=off)
            clamped.append(ev)
            prev = ev
        return replace(self, events=clamped)
